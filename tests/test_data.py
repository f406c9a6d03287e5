import re
import warnings

import numpy as np
import pytest

from nnsig.data import Dataset, TargetSpec, generate, load_csv, save_csv, split
from nnsig.exceptions import ConfigurationError, IngestionError
from nnsig.network import linear_network
from nnsig.significance import all_statistics


class TestGenerate:
    def test_noiseless_linear(self):
        spec = TargetSpec(kind="linear", beta=(1.0, 0.0), noise_sigma=0.0)
        ds = generate(spec, 50, 2, seed=1)
        assert np.array_equal(ds.y, ds.X[:, 0])

    def test_covariates_in_cube(self):
        spec = TargetSpec(kind="linear", beta=(1.0,) * 4, noise_sigma=0.2)
        ds = generate(spec, 500, 4, seed=2)
        assert np.abs(ds.X).max() <= 1.0

    def test_dead_variable_ignores_column(self):
        base = TargetSpec(kind="linear", beta=(1.0, 2.0, 3.0))
        spec = TargetSpec(kind="null_variable", base=base, dead_index=1, noise_sigma=0.0)
        ds = generate(spec, 100, 3, seed=3)
        shuffled = ds.X.copy()
        shuffled[:, 1] = np.random.default_rng(0).permutation(shuffled[:, 1])
        assert np.array_equal(spec.evaluate(shuffled), ds.y)

    def test_noise_truncated_and_centered(self):
        sigma = 0.3
        spec = TargetSpec(kind="linear", beta=(0.0, 0.0), noise_sigma=sigma)
        n = 4000
        ds = generate(spec, n, 2, seed=4)
        eps = ds.y  # target is identically zero
        assert np.abs(eps).max() <= 4 * sigma
        assert abs(eps.mean()) <= 4 * sigma / np.sqrt(n)

    def test_bounded_response(self):
        spec = TargetSpec(kind="smooth_sin", frequency=(1.0, 2.0), noise_sigma=0.1)
        ds = generate(spec, 300, 2, seed=5)
        assert np.abs(ds.y).max() <= 2 + 4 * 0.1

    def test_beta_length_mismatch(self):
        spec = TargetSpec(kind="linear", beta=(1.0, 2.0))
        with pytest.raises(ConfigurationError):
            generate(spec, 10, 3, seed=0)

    def test_null_variable_requires_parts(self):
        with pytest.raises(ConfigurationError):
            TargetSpec(kind="null_variable")

    @pytest.mark.parametrize("kind, key", [("linear", "beta"), ("smooth_sin", "frequency")])
    def test_kind_requires_its_parameter(self, kind, key):
        with pytest.raises(ConfigurationError, match=key):
            TargetSpec(kind=kind)

    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError):
            TargetSpec(kind="cubic")


class TestLoadCsv:
    def write(self, tmp_path, text):
        p = tmp_path / "data.csv"
        p.write_text(text, encoding="utf-8")
        return p

    def test_midpoint_maps_to_zero(self, tmp_path):
        p = self.write(tmp_path, "a,y\n0,1\n5,2\n10,3\n")
        ds = load_csv(p, "y")
        assert ds.X[1, 0] == 0.0
        assert ds.X[0, 0] == -1.0 and ds.X[2, 0] == 1.0

    def test_round_trip_inverse(self, tmp_path):
        rng = np.random.default_rng(6)
        orig = rng.uniform(-50, 120, (40, 2))
        lines = ["a,b,y"] + [f"{float(r[0])!r},{float(r[1])!r},{i}" for i, r in enumerate(orig)]
        p = self.write(tmp_path, "\n".join(lines) + "\n")
        ds = load_csv(p, "y")
        for j, (center, half) in enumerate(ds.rescale_transform):
            back = ds.X[:, j] * half + center
            assert np.abs(back - orig[:, j]).max() <= 1e-12 * max(1, np.abs(orig).max())

    def test_non_numeric_cell_cites_row(self, tmp_path):
        rows = ["a,y"] + [f"{i},{i}" for i in range(1, 7)] + ["oops,7", "8,8"]
        p = self.write(tmp_path, "\n".join(rows) + "\n")
        with pytest.raises(IngestionError, match="row 7"):
            load_csv(p, "y")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_cell_cites_row_and_column(self, tmp_path, cell):
        p = self.write(tmp_path, f"a,b,y\n1,2,3\n4,5,6\n7,{cell},9\n")
        with pytest.raises(IngestionError, match=f"non-finite cell '{cell}' at row 3, column 'b'"):
            load_csv(p, "y")

    def test_missing_value_cites_row(self, tmp_path):
        p = self.write(tmp_path, "a,b,y\n1,2,3\n4,,6\n")
        with pytest.raises(IngestionError, match="row 2"):
            load_csv(p, "y")

    def test_missing_target_column(self, tmp_path):
        p = self.write(tmp_path, "a,b\n1,2\n")
        with pytest.raises(IngestionError, match="target"):
            load_csv(p, "y")

    @pytest.mark.parametrize("header, repeated", [("x1,y,y", "y"), ("x1,x1,y", "x1"),
                                                   ("y,x1,x2,x1", "x1")])
    def test_repeated_column_named(self, tmp_path, header, repeated):
        width = header.count(",") + 1
        rows = "".join(",".join(str(i + k) for k in range(width)) + "\n" for i in range(4))
        p = self.write(tmp_path, header + "\n" + rows)
        with pytest.raises(IngestionError,
                           match=re.escape(f"{p}: header repeats column {repeated!r}")):
            load_csv(p, "y")

    def test_constant_column_named(self, tmp_path):
        p = self.write(tmp_path, "a,b,y\n1,5,0\n2,5,1\n")
        with pytest.raises(IngestionError, match="'b'"):
            load_csv(p, "y")

    def test_target_only_file_names_path(self, tmp_path):
        p = self.write(tmp_path, "y\n" + "".join(f"{i}\n" for i in range(200)))
        with pytest.raises(IngestionError, match=re.escape(f"{p}: no covariate column")):
            load_csv(p, "y")

    @pytest.mark.parametrize("column", [(-1e308, 1e308, 0.0), (1e308, 1.5e308, 1.2e308)])
    def test_extreme_cells_rescale_without_overflow(self, tmp_path, column):
        lines = ["a,y"] + [f"{v!r},{i}" for i, v in enumerate(column)]
        p = self.write(tmp_path, "\n".join(lines) + "\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ds = load_csv(p, "y")
        x = ds.X[:, 0]
        assert np.all(np.isfinite(x)) and np.all(np.abs(x) <= 1.0)
        assert x.min() == -1.0 and x.max() == 1.0

    def test_missing_file_names_path(self, tmp_path):
        p = tmp_path / "absent.csv"
        with pytest.raises(IngestionError, match=re.escape(f"{p}: cannot read")):
            load_csv(p, "y")

    def test_directory_names_path(self, tmp_path):
        with pytest.raises(IngestionError, match=re.escape(f"{tmp_path}: cannot read")):
            load_csv(tmp_path, "y")

    def test_non_utf8_byte_names_path(self, tmp_path):
        p = tmp_path / "data.csv"
        p.write_bytes(b"a,y\n1,2\n\xff,3\n")
        with pytest.raises(IngestionError, match=re.escape(f"{p}: not UTF-8 text")):
            load_csv(p, "y")

    def test_cell_beyond_csv_field_limit_cites_row(self, tmp_path):
        p = self.write(tmp_path, "a,y\n1,2\n3," + "4" * 131_073 + "\n")
        with pytest.raises(IngestionError, match=re.escape(f"{p}: malformed CSV at row 2")):
            load_csv(p, "y")

    def test_save_load_round_trip(self, tmp_path):
        spec = TargetSpec(kind="linear", beta=(1.0, -0.5), noise_sigma=0.1)
        ds = generate(spec, 30, 2, seed=7)
        p = tmp_path / "gen.csv"
        save_csv(ds, p)
        back = load_csv(p, "y")
        assert np.array_equal(back.y, ds.y)


class TestSplit:
    def make(self, n=100):
        spec = TargetSpec(kind="linear", beta=(1.0,), noise_sigma=0.1)
        return generate(spec, n, 1, seed=8)

    def test_even_split_sizes(self):
        tr, te = split(self.make(100), 0.5, seed=1)
        assert tr.n == 50 and te.n == 50

    def test_partition(self):
        ds = self.make(60)
        tr, te = split(ds, 0.7, seed=2)
        combined = np.sort(np.concatenate([tr.y, te.y]))
        assert np.array_equal(combined, np.sort(ds.y))
        assert tr.n + te.n == 60

    def test_same_seed_same_split(self):
        ds = self.make(80)
        a1, _ = split(ds, 0.5, seed=3)
        a2, _ = split(ds, 0.5, seed=3)
        assert np.array_equal(a1.X, a2.X)

    def test_fraction_out_of_range(self):
        with pytest.raises(ConfigurationError):
            split(self.make(), 1.0, seed=0)


class TestRescaleChainRule:
    def test_statistic_scales_with_b_squared(self, tmp_path):
        # y = 3*a with a in [0, 10]; rescaled a~ = (a-5)/5 so y = 15*a~ + 15
        rng = np.random.default_rng(9)
        a = rng.uniform(0, 10, 200)
        a[0], a[1] = 0.0, 10.0  # pin the range
        lines = ["a,y"] + [f"{float(v)!r},{float(3 * v)!r}" for v in a]
        p = tmp_path / "lin.csv"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        ds = load_csv(p, "y")
        center, half = ds.rescale_transform[0]
        net = linear_network([3.0 * half], 3.0 * center)
        # fitted-in-rescaled-coordinates slope is beta * half; statistic beta^2 * half^2
        stat = all_statistics(net, ds.X)[0]
        assert stat.raw == pytest.approx(9.0 * half ** 2, rel=1e-12)
