import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cbdid.data import (
    CsvSchema,
    Dataset,
    ModelSpec,
    delta,
    design_matrix,
    load_csv,
    split_blocks,
    unvech,
    vech,
)
from cbdid.errors import EmptyDataError, ParseError, SchemaError, SpecError


def make_dataset(n=6, k=2, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(
        covariates=rng.normal(size=(n, k)),
        treated=np.arange(n) % 2 == 0,
        y_pre=rng.normal(size=n),
        y_post=rng.normal(size=n),
        covariate_names=tuple(f"c{i}" for i in range(k)),
    )


CSV = b"""treat,age,score,y0,y1
1,25,2.0,1.0,3.5
0,30,5.0,2.0,2.0
1,41,1.5,0.0,9930.05
"""

SCHEMA = CsvSchema(
    treat_col="treat",
    covariate_cols=("age", "score"),
    y_pre_col="y0",
    y_post_col="y1",
)


class TestLoadCsv:
    def test_three_row_readback(self):
        ds = load_csv(CSV, SCHEMA)
        assert ds.n == 3
        assert ds.treated.sum() == 2 and (~ds.treated).sum() == 1
        np.testing.assert_allclose(ds.covariates[:, 0], [25, 30, 41])
        np.testing.assert_allclose(ds.y_post, [3.5, 2.0, 9930.05])

    def test_delta_column_mode(self):
        raw = b"treat,age,score,dy\n1,25,2.0,2.5\n0,30,5.0,0.0\n"
        schema = CsvSchema(treat_col="treat", covariate_cols=("age", "score"), delta_col="dy")
        ds = load_csv(raw, schema)
        np.testing.assert_allclose(ds.y_pre, [0.0, 0.0])
        np.testing.assert_allclose(delta(ds), [2.5, 0.0])

    def test_missing_column_is_schema_error(self):
        bad = CsvSchema(treat_col="treat", covariate_cols=("age", "income"),
                        y_pre_col="y0", y_post_col="y1")
        with pytest.raises(SchemaError, match="income"):
            load_csv(CSV, bad)

    def test_blank_cell_names_row(self):
        raw = b"treat,age,score,y0,y1\n1,25,2.0,1.0,3.5\n0,30,5.0,2.0,\n"
        with pytest.raises(ParseError, match="row 2"):
            load_csv(raw, SCHEMA)

    def test_non_numeric_cell(self):
        raw = b"treat,age,score,y0,y1\n1,x,2.0,1.0,3.5\n"
        with pytest.raises(ParseError, match="age"):
            load_csv(raw, SCHEMA)

    def test_zero_rows(self):
        raw = b"treat,age,score,y0,y1\n"
        with pytest.raises(EmptyDataError):
            load_csv(raw, SCHEMA)

    def test_treat_must_be_binary(self):
        raw = b"treat,age,score,y0,y1\n2,25,2.0,1.0,3.5\n"
        with pytest.raises(ParseError, match="0 or 1"):
            load_csv(raw, SCHEMA)

    def test_stream_and_bytes_agree(self):
        a = load_csv(CSV, SCHEMA)
        b = load_csv(io.BytesIO(CSV), SCHEMA)
        np.testing.assert_array_equal(a.covariates, b.covariates)

    def test_both_outcome_forms_rejected(self):
        with pytest.raises(SchemaError):
            CsvSchema(treat_col="t", covariate_cols=("a",), y_pre_col="p",
                      y_post_col="q", delta_col="d")

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_non_utf8_bytes_name_the_offset(self, bom):
        raw = bom + b"treat,age,score,y0,y1\n1,\xff\xfe,2.0,1.0,3.5\n"
        offset = raw.index(b"\xff")
        with pytest.raises(ParseError, match=f"0xff at byte offset {offset}$"):
            load_csv(raw, SCHEMA)

    def test_covariate_named_twice_rejected(self):
        with pytest.raises(SchemaError, match="more than once.*'age'"):
            CsvSchema(treat_col="treat", covariate_cols=("age", "score", "age"),
                      y_pre_col="y0", y_post_col="y1")

    def test_treat_column_as_covariate_rejected(self):
        with pytest.raises(SchemaError, match="'treat' cannot also be a covariate"):
            CsvSchema(treat_col="treat", covariate_cols=("age", "treat"),
                      y_pre_col="y0", y_post_col="y1")

    def test_pre_outcome_may_be_a_covariate(self):
        schema = CsvSchema(treat_col="treat", covariate_cols=("age", "y0"),
                           y_pre_col="y0", y_post_col="y1")
        ds = load_csv(CSV, schema)
        np.testing.assert_array_equal(ds.covariates[:, 1], ds.y_pre)


class TestDesignMatrix:
    def test_intercept_and_selected_order(self):
        ds = Dataset(
            covariates=np.array([[2.0, 5.0]]),
            treated=np.array([True]),
            y_pre=np.zeros(1),
            y_post=np.zeros(1),
            covariate_names=("a", "b"),
        )
        X = design_matrix(ds, ModelSpec((0,)))
        np.testing.assert_allclose(X, [[1.0, 2.0]])
        X = design_matrix(ds, ModelSpec((1, 0)))
        np.testing.assert_allclose(X, [[1.0, 5.0, 2.0]])

    def test_intercept_only(self):
        ds = make_dataset(n=4)
        X = design_matrix(ds, ModelSpec(()))
        np.testing.assert_allclose(X, np.ones((4, 1)))

    def test_full_lalonde_shape(self):
        ds = make_dataset(n=445, k=7)
        X = design_matrix(ds, ModelSpec(tuple(range(7))))
        assert X.shape == (445, 8)

    def test_out_of_range_index(self):
        ds = make_dataset(k=2)
        with pytest.raises(SpecError):
            design_matrix(ds, ModelSpec((2,)))

    def test_rows_permute_with_dataset(self):
        ds = make_dataset(n=8, k=3)
        spec = ModelSpec((2, 0))
        perm = np.random.default_rng(1).permutation(8)
        np.testing.assert_allclose(
            design_matrix(ds.take(perm), spec), design_matrix(ds, spec)[perm]
        )


class TestDelta:
    def test_examples(self):
        ds = Dataset(
            covariates=np.zeros((3, 1)),
            treated=np.array([True, False, True]),
            y_pre=np.array([1.0, 2.0, 0.0]),
            y_post=np.array([3.5, 2.0, 9930.05]),
            covariate_names=("a",),
        )
        np.testing.assert_allclose(delta(ds), [2.5, 0.0, 9930.05])

    def test_shift_linearity(self):
        ds = make_dataset(n=5)
        shifted = Dataset(
            covariates=ds.covariates,
            treated=ds.treated,
            y_pre=ds.y_pre,
            y_post=ds.y_post + 3.0,
            covariate_names=ds.covariate_names,
        )
        np.testing.assert_allclose(delta(shifted), delta(ds) + 3.0)


class TestVech:
    def test_scalar(self):
        np.testing.assert_allclose(vech(np.array([[4.0]])), [4.0])

    def test_two_by_two(self):
        np.testing.assert_allclose(vech(np.array([[1.0, 2.0], [2.0, 5.0]])), [1, 2, 5])

    def test_outer_product(self):
        x = np.array([1.0, 3.0])
        np.testing.assert_allclose(vech(np.outer(x, x)), [1, 3, 9])

    def test_asymmetric_rejected(self):
        with pytest.raises(SpecError):
            vech(np.array([[1.0, 2.0], [2.1, 5.0]]))

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=10**6))
    def test_round_trip(self, p, seed):
        rng = np.random.default_rng(seed)
        S = rng.normal(size=(p, p))
        S = S + S.T
        np.testing.assert_allclose(unvech(vech(S)), S)
        v = rng.normal(size=p * (p + 1) // 2)
        np.testing.assert_allclose(vech(unvech(v)), v)


class TestSplitBlocks:
    def test_round_robin(self):
        ds = make_dataset(n=6)
        blocks = split_blocks(ds, 3)
        np.testing.assert_allclose(blocks[0].covariates, ds.covariates[[0, 3]])
        np.testing.assert_allclose(blocks[1].covariates, ds.covariates[[1, 4]])
        np.testing.assert_allclose(blocks[2].covariates, ds.covariates[[2, 5]])

    def test_sizes_445(self):
        ds = make_dataset(n=445, k=1)
        assert [b.n for b in split_blocks(ds, 3)] == [149, 148, 148]

    def test_identity(self):
        ds = make_dataset(n=5)
        (block,) = split_blocks(ds, 1)
        np.testing.assert_array_equal(block.covariates, ds.covariates)
        assert block is ds

    def test_zero_blocks(self):
        with pytest.raises(SpecError):
            split_blocks(make_dataset(), 0)

    def test_partition(self):
        ds = make_dataset(n=11, k=2, seed=3)
        blocks = split_blocks(ds, 4)
        assert sum(b.n for b in blocks) == ds.n
        stacked = np.vstack([b.covariates for b in blocks])
        assert {tuple(r) for r in stacked} == {tuple(r) for r in ds.covariates}
