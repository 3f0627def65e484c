"""Property test: a batched run equals a per-shot replay.

Each example runs one of the 9 presets on a two-point grid with 1-6 shots,
a random master seed, mode, ``ideal_pulses``, ``gamma_laser`` in {0, 0.1}
and 1 or 2 workers, so results must not depend on ``n_workers`` either.
``run_ensemble`` propagates each scan point's shots as one stack;
every shot's detected distribution in ``per_shot`` must be
``np.array_equal`` to the same shot replayed alone: its own noise draw,
``compile_sequence`` and single-sequence ``run_compiled``. Runs
derandomized with a capped example count; needs the test-only dependency
``hypothesis``.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from rydsim.atoms import PERFECT_DETECTION  # noqa: E402
from rydsim.experiments import PRESETS, config_from_dict  # noqa: E402
from rydsim.montecarlo import run_ensemble, sample_noise, shot_seed  # noqa: E402
from rydsim.pulses import compile_sequence, run_compiled  # noqa: E402


def replayed_shot(spec, value, scan_index, shot, seed):
    """One shot's detected distribution, propagated on its own."""
    system = spec.system
    rng = np.random.default_rng(shot_seed(seed, scan_index, shot))
    noise = sample_noise(spec.doppler_width(), spec.sigma_position_um, system.n_atoms, rng)
    compiled = compile_sequence(spec.build(value), system, noise, ideal_pulses=spec.ideal_pulses)
    rho = run_compiled(compiled, system.initial_state(), dt_max=spec.dt_max)
    p = np.clip(rho.matrix.diagonal().real, 0.0, 1.0)
    model = spec.detection or PERFECT_DETECTION
    vec = model.confusion_matrix(system.level_tuples, compiled.total_duration) @ p
    return vec / vec.sum()


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(
    preset=st.sampled_from(sorted(PRESETS)),
    n_shots=st.integers(1, 6),
    seed=st.integers(-2**63, 2**63 - 1),
    mode=st.sampled_from(["expectation", "sampled"]),
    ideal_pulses=st.booleans(),
    gamma_laser=st.sampled_from([0.0, 0.1]),
    n_workers=st.sampled_from([1, 2]),
)
def test_batched_run_equals_per_shot_replay(preset, n_shots, seed, mode, ideal_pulses,
                                            gamma_laser, n_workers):
    cfg = config_from_dict({
        "preset": preset, "mode": mode, "n_shots": n_shots, "master_seed": seed,
        "ideal_pulses": ideal_pulses, "noise": {"gamma_laser": gamma_laser},
        "scan": {"points": 2},
    })
    spec, values = cfg.ensemble_spec(), cfg.scan_values()
    res = run_ensemble(spec, values, n_shots, mode=mode, master_seed=seed, n_workers=n_workers)
    for i, value in enumerate(values):
        replay = [replayed_shot(spec, value, i, shot, seed) for shot in range(n_shots)]
        assert np.array_equal(res.per_shot[i], np.array(replay)), (preset, i)
