"""The benchmark's workloads.

Each workload is a synthetic cohort spec (every ``SynthSpec`` field but
the seed, which the benchmark takes as an argument), the ``evaluate``
flags used on it, and the ``simulate --sweep`` call run beside it. The
program only ever sees the generated files.

``report_sha256`` and ``sweep_sha256`` are the SHA-256 digests of the
evaluate report and of the sweep report at ``DEFAULT_SEED``; a run at
that seed fails when either differs.
"""

from __future__ import annotations

from dataclasses import dataclass

DEFAULT_SEED = 0
FOLDS = 4


@dataclass(frozen=True)
class SweepPlan:
    param: str
    levels: tuple[float, ...]
    replicates: int
    # overrides of the cohort spec for the sweep and the timed simulate calls:
    # a sweep over the full 256x256 or 96x96 cohort would not fit in one run,
    # and short calls are timed many times a run; many short videos keep the
    # station draws, which set most of the generation cost, close to their
    # mean at every seed
    reshape: dict | None = None

    @property
    def levels_arg(self) -> str:
        return ",".join(f"{level:g}" for level in self.levels)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    spec: dict
    eval_flags: tuple[str, ...]
    sweep: SweepPlan
    report_sha256: str | None = None
    sweep_sha256: str | None = None

    def spec_dict(self, seed: int, reshape: dict | None = None) -> dict:
        return {**self.spec, **(reshape or {}), "seed": seed}

    @staticmethod
    def frames_of(spec: dict) -> int:
        return spec["n_videos"] * (
            spec.get("frames_per_video", 8) + spec.get("nonroi_frames_per_video", 0)
        )

    @property
    def listed_frames(self) -> int:
        return self.frames_of(self.spec)

    @property
    def gen_frames(self) -> int:
        """Frames of one simulate call of the sweep's spec."""
        return self.frames_of(self.spec_dict(DEFAULT_SEED, self.sweep.reshape))

    @property
    def sweep_frames(self) -> int:
        spec = self.spec_dict(DEFAULT_SEED, self.sweep.reshape)
        return len(self.sweep.levels) * self.sweep.replicates * self.frames_of(spec)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wide-256",
            why=(
                "per-pixel work dominates (raster decode, Dice, thresholds) with a few "
                "nodules per frame; shows decode and Dice changes"
            ),
            spec={
                "n_videos": 16,
                "frame_size": [256, 256],
                "frames_per_video": 12,
                "nonroi_frames_per_video": 2,
                "noise": {
                    "confidence_jitter": 0.08,
                    "boundary_morph": 1,
                    "false_blob_rate": 2.0,
                    "miss_rate": 0.2,
                },
            },
            eval_flags=(),
            sweep=SweepPlan("miss_rate", (0.2,), 1, {"n_videos": 8, "frames_per_video": 2}),
            report_sha256="975db3fdd250d91c4cea463d757d96eb1a46af9e873912d49d74105ff8ba09cb",
            sweep_sha256="41c0edd898a889de5a8443966238a4cd9ab788b52bc713ad20c846576e20fa8a",
        ),
        Workload(
            name="dense-96",
            why=(
                "dozens of nodules per frame, Dice and ROI off: connected components and "
                "nodule assignment set the cost; shows CC and assignment changes"
            ),
            spec={
                "n_videos": 32,
                "frame_size": [96, 96],
                "frames_per_video": 16,
                "station_prevalence": [0.8] * 6,
                "nodules_per_positive_station": [3, 6],
                "noise": {"false_blob_rate": 30.0},
            },
            eval_flags=("--no-dice", "--no-roi"),
            sweep=SweepPlan("miss_rate", (0.0,), 1, {"n_videos": 16, "frames_per_video": 4}),
            report_sha256="28bb6e0c2079adc144c31bced0361dfa1ad8c1960939ffc6b6be771ec0b97b3d",
            sweep_sha256="8046d9bc8461baa82144a31ff2c7fdba4705b6f9d919bd03a5a7f39062141aa0",
        ),
    )
}
