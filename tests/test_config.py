"""Simulation-parameter validation (Table 1) and the ``REPRO_*`` knob table."""

import re
from pathlib import Path

import pytest

from repro.config import (
    KNOBS,
    PAPER_STRUCTURE_4864,
    PAPER_STRUCTURE_10240,
    PARAMETER_RANGES,
    SimulationParameters,
    resolve,
)

_ROOT = Path(__file__).resolve().parents[1]

#: settings that are constructor / SearchConfig arguments only: no code,
#: benchmark or example set them through the environment
_RETIRED_ENV = (
    "REPRO_SERVICE_MODE",
    "REPRO_SERVICE_CAPACITY",
    "REPRO_SERVICE_CACHE",
    "REPRO_AUTOTUNE_STRATEGY",
    "REPRO_AUTOTUNE_BEAM_WIDTH",
    "REPRO_AUTOTUNE_MAX_MOVES",
    "REPRO_AUTOTUNE_ESCAPE_DEPTH",
)


class TestValidation:
    def test_defaults_valid(self):
        SimulationParameters()

    def test_nkz_range(self):
        with pytest.raises(ValueError):
            SimulationParameters(Nkz=22, Nqz=1)

    def test_norb_range(self):
        with pytest.raises(ValueError):
            SimulationParameters(Norb=31)

    def test_n3d_fixed_at_three(self):
        with pytest.raises(ValueError):
            SimulationParameters(N3D=2)

    def test_nqz_bounded_by_nkz(self):
        with pytest.raises(ValueError):
            SimulationParameters(Nkz=3, Nqz=5)

    def test_nw_bounded_by_ne(self):
        with pytest.raises(ValueError):
            SimulationParameters(NE=50, Nw=60)

    def test_nb_smaller_than_na(self):
        with pytest.raises(ValueError):
            SimulationParameters(NA=30, NB=34, bnum=5)

    def test_bnum_bounded_by_na(self):
        with pytest.raises(ValueError):
            SimulationParameters(NA=100, NB=4, bnum=200)

    def test_type_check(self):
        with pytest.raises(TypeError):
            SimulationParameters(Nkz=3.5)  # type: ignore[arg-type]

    def test_table1_ranges_cover_paper_structures(self):
        for name, (lo, hi) in PARAMETER_RANGES.items():
            v = getattr(PAPER_STRUCTURE_4864, name)
            assert lo <= v <= hi


class TestDerived:
    def test_block_size(self):
        p = PAPER_STRUCTURE_4864
        assert p.block_size == pytest.approx(4864 * 12 / 19)

    def test_electron_tensor_elements(self):
        p = SimulationParameters(Nkz=2, Nqz=2, NE=10, Nw=3, NA=100, NB=4, Norb=3)
        assert p.electron_gf_elements == 2 * 10 * 100 * 9

    def test_phonon_tensor_elements(self):
        p = SimulationParameters(Nkz=2, Nqz=2, NE=10, Nw=3, NA=100, NB=4, Norb=3)
        assert p.phonon_gf_elements == 2 * 3 * 100 * 5 * 9

    def test_bytes_are_16x_elements(self):
        p = PAPER_STRUCTURE_4864
        assert p.electron_gf_bytes == 16 * p.electron_gf_elements

    def test_replace(self):
        p = PAPER_STRUCTURE_4864.replace(Nkz=3, Nqz=3)
        assert p.Nkz == 3 and p.NA == 4864

    def test_as_dict_roundtrip(self):
        p = PAPER_STRUCTURE_4864
        assert SimulationParameters(**p.as_dict()) == p

    def test_paper_presets(self):
        assert PAPER_STRUCTURE_4864.NA == 4864
        assert PAPER_STRUCTURE_10240.NA == 10240
        assert PAPER_STRUCTURE_10240.Nkz == 21


# -- the knob table ---------------------------------------------------------------


@pytest.mark.parametrize("knob", list(KNOBS.values()), ids=list(KNOBS))
def test_knob_resolution(knob, monkeypatch):
    monkeypatch.delenv(knob.env, raising=False)
    assert resolve(knob.name) == knob.default
    choices = knob.valid()
    assert knob.default in choices
    other = [c for c in choices if c != knob.default][0]
    monkeypatch.setenv(knob.env, f" {other.upper()} ")
    assert resolve(knob.name) == other
    assert resolve(knob.name, knob.default) == knob.default  # explicit wins
    monkeypatch.setenv(knob.env, "bogus")
    with pytest.raises(ValueError, match=knob.env) as exc:
        resolve(knob.name)
    assert str(choices) in str(exc.value)
    with pytest.raises(ValueError, match=f"unknown {knob.name} 'bogus'"):
        resolve(knob.name, "bogus")


def test_registered_names_are_valid_choices(monkeypatch):
    import repro.negf.kernels as kernels
    import repro.sdfg.backends as backends

    monkeypatch.setitem(kernels._REGISTRY, "custom", kernels.NumpyKernel)
    monkeypatch.setitem(backends._REGISTRY, "custom", backends.NumpyBackend)
    monkeypatch.setenv("REPRO_RGF_KERNEL", "custom")
    monkeypatch.setenv("REPRO_SDFG_BACKEND", "custom")
    assert isinstance(kernels.get_kernel(), kernels.NumpyKernel)
    assert isinstance(backends.get_backend(), backends.NumpyBackend)


def test_only_config_reads_repro_environment():
    read = re.compile(r"(environ|getenv)[^\n]*REPRO_")
    offenders = [
        str(path.relative_to(_ROOT))
        for path in sorted((_ROOT / "src" / "repro").rglob("*.py"))
        if path.name != "config.py" or path.parent.name != "repro"
        if read.search(path.read_text())
    ]
    assert offenders == []


def test_readme_documents_the_knob_table():
    readme = (_ROOT / "README.md").read_text()
    for knob in KNOBS.values():
        rows = [
            line
            for line in readme.splitlines()
            if line.startswith(f"| `{knob.env}`")
        ]
        assert len(rows) == 1, knob.env
        default_cell = rows[0].split("|")[3]
        assert default_cell.strip() == f"`{knob.default}`"
    for env in _RETIRED_ENV:
        assert env not in readme
