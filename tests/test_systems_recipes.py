"""The water recipes: unchanged parameters for every box they can
run, and a one-line rejection for every box they cannot."""

import pytest

from repro.cli import main
from repro.core import MDParams
from repro.systems import build_water_box, machine_water_params, mts_water_params


class TestRecipes:
    @pytest.mark.parametrize("waters", [8, 16, 24, 32, 48, 64])
    def test_mts_recipe_matches_the_built_box(self, waters):
        box = build_water_box(n_molecules=waters, seed=3).box
        want = MDParams(cutoff=min(5.5, box.max_cutoff() * 0.9), mesh=(16, 16, 16),
                        long_range_every=2)
        assert mts_water_params(waters) == want

    def test_cutoff_override(self):
        assert mts_water_params(8, cutoff=3.0).cutoff == 3.0

    @pytest.mark.parametrize("waters", [8, 16, 24, 32, 40])
    def test_machine_recipe_matches_the_built_box(self, waters):
        box = build_water_box(n_molecules=waters, seed=3).box
        want = MDParams(cutoff=min(4.5, box.max_cutoff() * 0.9), mesh=(16, 16, 16),
                        quantize_mesh_bits=40)
        assert machine_water_params(waters) == want

    @pytest.mark.parametrize("recipe, waters", [
        (mts_water_params, 96), (mts_water_params, 256),
        (machine_water_params, 64), (machine_water_params, 1700),
    ])
    def test_box_too_large_for_the_mesh(self, recipe, waters):
        with pytest.raises(ValueError, match=f"^{waters} waters .*too coarse") as exc:
            recipe(waters)
        assert "\n" not in str(exc.value)

    def test_cutoff_past_minimum_image_rejected(self):
        with pytest.raises(ValueError, match="minimum-image"):
            mts_water_params(8, cutoff=1e6)

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ValueError, match="cutoff must be positive"):
            mts_water_params(8, cutoff=-1.0)

    def test_no_waters_rejected(self):
        with pytest.raises(ValueError, match="at least one water"):
            mts_water_params(0)


class TestCLIRejects:
    @pytest.mark.parametrize("argv", [
        ["machine", "--waters", "1700", "--steps", "1"],
        ["machine", "--waters", "64", "--steps", "1"],
        ["network", "--waters", "64", "--steps", "1"],
        ["simulate", "--waters", "256", "--steps", "1"],
        ["ensemble", "--waters", "256", "--steps", "1"],
    ])
    def test_unservable_box_exits_with_one_line(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value.code)
        assert message.startswith("error: ")
        assert "too coarse" in message
        assert "\n" not in message
        assert "minimized" not in capsys.readouterr().out
