"""Property test: a config with one bad value exits 1 with a message.

Each example puts one bad value into a valid two-point, one-shot ``rabi``
or ``blockade_rabi`` config: NaN or an infinity for a number, a string for
a number or a boolean, a zero or negative count, a master seed outside the
signed 64-bit range, or an unknown key. The run must exit 1 with ``error:``
on stderr and no traceback. Runs derandomized with a capped example count;
needs the test-only dependency ``hypothesis``.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
import yaml

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from rydsim.cli import main  # noqa: E402

# (section, key); a section of None is the top level
NUMBERS = [
    (None, "dt_max"), ("scan", "start"), ("scan", "stop"), ("sequence", "rabi_mhz"),
    ("noise", "gamma_laser"), ("noise", "sigma_position_um"),
    ("atom", "omega_blue_mhz"), ("atom", "temperature_uk"), ("atom", "gamma_red_scatter"),
    ("atom", "t_blackbody_us"), ("two_atom", "interaction_u_mhz"),
    ("two_atom", "separation_um"), ("detection", "f_r"), ("detection", "f_g"),
]
BOOLEANS = [
    (None, "ideal_pulses"), ("noise", "doppler"), ("noise", "positions"),
    ("noise", "scattering"), ("noise", "blackbody"), ("atom", "counter_propagating"),
]
COUNTS = [(None, "n_shots"), ("scan", "points"), (None, "n_workers")]
SECTIONS = [None, "scan", "noise", "sequence", "atom", "two_atom", "detection"]

BAD_NUMBER = st.sampled_from([math.nan, math.inf, -math.inf, "1e-3", "2.0"])
BAD = st.one_of(
    st.tuples(st.sampled_from(NUMBERS), BAD_NUMBER),
    st.tuples(st.just(("two_atom", "positions_um")), BAD_NUMBER.map(lambda v: [0.0, v])),
    st.tuples(st.sampled_from(BOOLEANS), st.sampled_from(["false", "true", "no", "1"])),
    st.tuples(st.sampled_from(COUNTS), st.sampled_from([0, -1, -3, math.nan, "2"])),
    st.tuples(st.just((None, "master_seed")),
              st.sampled_from([2**63, -2**63 - 1, 10**19, 10000000000000000000.0])),
    st.tuples(st.sampled_from([(section, "bogus") for section in SECTIONS]), st.just(1.0)),
)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(preset=st.sampled_from(["rabi", "blockade_rabi"]), bad=BAD)
def test_one_bad_value_exits_1_with_a_message(preset, bad):
    (section, key), value = bad
    assume(not (key == "t_blackbody_us" and value == math.inf))  # .inf: no blackbody decay
    config = {"preset": preset, "scan": {"start": 0.1, "stop": 0.2, "points": 2},
              "n_shots": 1, "n_workers": 1}
    (config.setdefault(section, {}) if section else config)[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        config["output_dir"] = str(Path(tmp) / "out")
        path = Path(tmp) / "config.yaml"
        path.write_text(yaml.safe_dump(config), encoding="utf-8")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["run", str(path)])
    assert code == 1, f"{config} exited {code}"
    assert err.getvalue().startswith("error:")
    assert "Traceback" not in err.getvalue()
