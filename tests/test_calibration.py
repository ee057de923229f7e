"""Calibrator fitting/application and label-shift EM behavior."""

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abstainkit import (
    Calibrator,
    PriorEstimate,
    ProbabilityMatrix,
    adapt_label_shift_em,
    apply_calibrator,
    fit_calibrator,
)
from abstainkit import calibration
from abstainkit.errors import (
    DegenerateLabels,
    DidNotConverge,
    DimensionMismatch,
    InvalidConfig,
    NonpositiveTrainPrior,
)

from oracles import row_major_label_shift_em, row_major_temp_nll


def _softmax(z):
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def _sample_categorical(rng, probs):
    return (rng.random(probs.shape[0])[:, None] >= probs.cumsum(axis=1)).sum(axis=1).clip(
        0, probs.shape[1] - 1
    )


class TestFitCalibrator:
    def test_platt_identity_recovery(self):
        # scores already equal to the true log-odds: the NLL optimum is the
        # identity map, so slope ~ 1 and intercept ~ 0
        rng = np.random.default_rng(5)
        scores = rng.normal(0.0, 2.0, 10000)
        labels = (rng.random(10000) < 1.0 / (1.0 + np.exp(-scores))).astype(int)
        cal = fit_calibrator("platt", scores, labels)
        assert cal.scale == pytest.approx(1.0, abs=0.1)
        assert cal.offset[0] == pytest.approx(0.0, abs=0.1)

    def test_temperature_recovery(self):
        # logits are a calibrated reference times 2.5, so the fitted
        # temperature should recover 2.5 within 5%
        rng = np.random.default_rng(6)
        reference = rng.normal(0.0, 3.0, (10000, 4))
        labels = _sample_categorical(rng, _softmax(reference))
        cal = fit_calibrator("temperature", reference * 2.5, labels)
        assert cal.temperature == pytest.approx(2.5, rel=0.05)
        assert np.all(cal.offset == 0.0)

    def test_temperature_recovery_verified_by_grid_scan(self):
        rng = np.random.default_rng(16)
        reference = rng.normal(0.0, 2.0, (4000, 3))
        labels = _sample_categorical(rng, _softmax(reference))
        logits = reference * 2.5
        cal = fit_calibrator("temperature", logits, labels)

        def nll(temperature):
            z = logits / temperature
            shifted = z - z.max(axis=1, keepdims=True)
            log_norm = np.log(np.exp(shifted).sum(axis=1))
            return float(np.mean(log_norm - shifted[np.arange(labels.size), labels]))

        grid = np.linspace(0.5, 8.0, 301)
        best = grid[int(np.argmin([nll(t) for t in grid]))]
        assert cal.temperature == pytest.approx(best, abs=0.05)

    def test_bias_corrected_recovers_shift(self):
        rng = np.random.default_rng(7)
        reference = rng.normal(0.0, 3.0, (10000, 3))
        labels = _sample_categorical(rng, _softmax(reference))
        bias = np.array([1.0, -0.5, 0.0])
        cal = fit_calibrator("bias_corrected_temperature", reference * 2.0 + bias, labels)
        assert cal.temperature == pytest.approx(2.0, rel=0.1)
        # offsets are identified only up to an additive constant
        centered = cal.offset - cal.offset.mean()
        expected = -(bias - bias.mean())
        np.testing.assert_allclose(centered, expected, atol=0.15)

    def test_single_class_rejected(self):
        with pytest.raises(DegenerateLabels):
            fit_calibrator("platt", np.linspace(-1, 1, 20), np.ones(20, dtype=int))

    def test_missing_class_rejected(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(0, 1, (30, 4))
        labels = rng.integers(0, 2, 30)  # classes 2 and 3 never appear
        with pytest.raises(DegenerateLabels):
            fit_calibrator("temperature", logits, labels)

    def test_too_few_examples(self):
        with pytest.raises(ValueError, match="at least 10"):
            fit_calibrator("platt", np.linspace(-1, 1, 5), np.array([0, 1, 0, 1, 0]))

    def test_fit_is_deterministic(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(0, 2, (500, 3))
        labels = _sample_categorical(rng, _softmax(logits))
        first = fit_calibrator("temperature", logits, labels)
        second = fit_calibrator("temperature", logits, labels)
        assert first.scale == second.scale

    def test_fitted_nll_beats_identity(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(0, 4, (2000, 3))
        labels = _sample_categorical(rng, _softmax(logits / 3.0))
        cal = fit_calibrator("temperature", logits, labels)

        def nll(matrix):
            return -float(np.mean(np.log(matrix[np.arange(labels.size), labels])))

        fitted = nll(apply_calibrator(cal, logits).entries)
        identity = nll(_softmax(logits))
        assert fitted <= identity + 1e-12


class TestApplyCalibrator:
    def test_identity_temperature_is_softmax(self):
        rng = np.random.default_rng(1)
        logits = rng.normal(0, 2, (50, 4))
        cal = Calibrator(kind="temperature", scale=1.0, offset=np.zeros(4))
        np.testing.assert_allclose(apply_calibrator(cal, logits).entries, _softmax(logits), atol=1e-12)

    def test_platt_midpoint(self):
        cal = Calibrator(kind="platt", scale=1.0, offset=[0.0])
        assert apply_calibrator(cal, np.array([0.0]))[0] == 0.5

    def test_platt_sigmoid_reaches_zero_without_a_warning(self):
        # exp(1.5e20) overflows to inf and 1 / (1 + inf) is exactly 0.0; no RuntimeWarning escapes
        cal = Calibrator(kind="platt", scale=1.5, offset=[0.2])
        got = apply_calibrator(cal, np.array([-1e20, -99999999999999999999, 0.5, 1e20]))
        assert got.tolist() == [0.0, 0.0, 1.0 / (1.0 + np.exp(-0.95)), 1.0]
        nll, grad = calibration._platt_nll([1.5, 0.2], np.array([-1e20, 0.5]), np.array([0.0, 1.0]))
        assert np.isfinite(nll) and np.isfinite(grad).all()

    def test_large_temperature_flattens_rows(self):
        rng = np.random.default_rng(2)
        logits = rng.normal(0, 2, (20, 5))
        for temperature in (1e2, 1e4):
            cal = Calibrator(kind="temperature", scale=1.0 / temperature, offset=np.zeros(5))
            rows = apply_calibrator(cal, logits).entries
            np.testing.assert_allclose(rows, 0.2, atol=10.0 / temperature)

    def test_rows_always_on_simplex(self):
        rng = np.random.default_rng(3)
        logits = rng.normal(0, 30, (200, 6))
        cal = Calibrator(kind="bias_corrected_temperature", scale=0.37, offset=rng.normal(0, 1, 6))
        rows = apply_calibrator(cal, logits).entries
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, atol=1e-9)

    def test_argmax_preserved_by_plain_temperature(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(0, 3, (1000, 5))
        cal = Calibrator(kind="temperature", scale=1.0 / 3.7, offset=np.zeros(5))
        rows = apply_calibrator(cal, logits).entries
        np.testing.assert_array_equal(rows.argmax(axis=1), logits.argmax(axis=1))

    def test_dimension_mismatch(self):
        cal = Calibrator(kind="temperature", scale=1.0, offset=np.zeros(3))
        with pytest.raises(DimensionMismatch):
            apply_calibrator(cal, np.zeros((4, 5)))
        platt = Calibrator(kind="platt", scale=1.0, offset=[0.0])
        with pytest.raises(DimensionMismatch):
            apply_calibrator(platt, np.zeros((4, 2)))

    def test_json_roundtrip_exact_field_names(self):
        cal = Calibrator(kind="bias_corrected_temperature", scale=0.4, offset=[0.1, -0.1, 0.0])
        payload = json.loads(json.dumps(cal.to_dict()))
        assert set(payload) == {"kind", "scale", "offset"}
        restored = Calibrator.from_dict(payload)
        assert restored.kind == cal.kind
        assert restored.scale == cal.scale
        np.testing.assert_array_equal(restored.offset, cal.offset)


class TestLabelShiftEM:
    def test_no_shift_is_near_fixed_point(self):
        rng = np.random.default_rng(20)
        logits = rng.normal(0, 2, (10000, 3))
        probs = _softmax(logits)
        labels = _sample_categorical(rng, probs)
        train = PriorEstimate(np.bincount(labels, minlength=3) / labels.size)
        result = adapt_label_shift_em(ProbabilityMatrix(probs), train)
        np.testing.assert_allclose(result.test_priors.priors, train.priors, atol=0.02)
        np.testing.assert_allclose(result.adapted_probs.entries, probs, atol=0.06)

    def test_one_hot_rows_give_empirical_frequencies_in_one_step(self):
        rows = np.eye(3)[np.array([0, 0, 1, 2, 2, 2])]
        result = adapt_label_shift_em(
            ProbabilityMatrix(rows), PriorEstimate(np.ones(3) / 3), max_iter=1
        )
        np.testing.assert_allclose(result.test_priors.priors, [2 / 6, 1 / 6, 3 / 6], atol=1e-12)
        np.testing.assert_allclose(result.adapted_probs.entries, rows, atol=1e-12)

    def test_rows_stay_on_simplex(self):
        rng = np.random.default_rng(21)
        probs = _softmax(rng.normal(0, 2, (500, 4)))
        result = adapt_label_shift_em(ProbabilityMatrix(probs), PriorEstimate(np.full(4, 0.25)))
        np.testing.assert_allclose(result.adapted_probs.entries.sum(axis=1), 1.0, atol=1e-9)

    def test_one_more_step_changes_priors_below_tol(self):
        rng = np.random.default_rng(22)
        probs = _softmax(rng.normal(0, 2, (2000, 3)))
        train = PriorEstimate(np.array([0.5, 0.3, 0.2]))
        tol = 1e-6
        result = adapt_label_shift_em(ProbabilityMatrix(probs), train, tol=tol)
        assert result.converged
        weighted = probs * (result.test_priors.priors / train.priors)
        next_priors = (weighted / weighted.sum(axis=1, keepdims=True)).mean(axis=0)
        assert np.abs(next_priors - result.test_priors.priors).max() < tol

    def test_max_iter_flags_nonconvergence(self):
        rng = np.random.default_rng(23)
        probs = _softmax(rng.normal(0, 2, (200, 3)))
        result = adapt_label_shift_em(
            ProbabilityMatrix(probs), PriorEstimate(np.array([0.2, 0.3, 0.5])), tol=1e-15, max_iter=3
        )
        assert not result.converged
        assert result.iterations == 3

    def test_nonpositive_train_prior(self):
        probs = ProbabilityMatrix(np.array([[0.5, 0.5]]))
        with pytest.raises(NonpositiveTrainPrior):
            adapt_label_shift_em(probs, PriorEstimate(np.array([1.0, 0.0])))

    def test_no_rows_rejected(self):
        with pytest.raises(ValueError, match="at least one row"):
            adapt_label_shift_em(ProbabilityMatrix(np.empty((0, 2))), PriorEstimate(np.array([0.5, 0.5])))

    def test_a_row_without_mass_is_named(self):
        # fault injection: no legal input is known to empty a row, so the matrix skips its own check
        probs = object.__new__(ProbabilityMatrix)
        object.__setattr__(probs, "entries", np.array([[0.5, 0.5], [0.0, 0.0]]))
        with pytest.raises(InvalidConfig, match="^a row lost all probability mass during adaptation$"):
            adapt_label_shift_em(probs, PriorEstimate(np.array([0.5, 0.5])))


# The class-major EM and NLL passes must give the bytes of the row-major
# references: numpy's row sums switch to 8-lane pairwise sums at 8 classes,
# and its class means add rows in order, so C runs over 2..12 and N past 8.
_ROW_COUNTS = st.sampled_from([1, 2, 9, 17, 130, 400])


def _outcome(run):
    """``run()``'s result, or the type and message of the error it raised."""
    try:
        return run()
    except (ValueError, DidNotConverge) as exc:
        return type(exc), str(exc)


def _simplex(rng, n, n_classes, zero_share):
    """Rows on the simplex; about ``zero_share`` of the entries are exact
    zeros, half of them ``-0.0``, and one entry per row keeps its mass."""
    rows = np.arange(n)
    keeper = rng.integers(0, n_classes, n)
    mass = rng.random((n, n_classes)) ** 3
    mass[rows, keeper] += 0.5
    zeros = rng.random((n, n_classes)) < zero_share
    zeros[rows, keeper] = False
    mass[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    return mass / mass.sum(axis=1, keepdims=True)


@pytest.mark.parametrize("n_classes", range(2, 13))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(n=_ROW_COUNTS, zero_share=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_class_major_sums_give_numpys_bytes(n_classes, n, zero_share, seed):
    rng = np.random.default_rng(seed)
    table = rng.normal(0.0, 1.0, (n, n_classes)) * 10.0 ** rng.uniform(-3.0, 3.0, (n, n_classes))
    zeros = rng.random((n, n_classes)) < zero_share
    table[zeros] = np.where(rng.random(zeros.sum()) < 0.5, 0.0, -0.0)
    cols = np.ascontiguousarray(table.T)
    assert calibration._row_sums(cols).tobytes() == table.sum(axis=1).tobytes()
    assert calibration._class_means(cols).tobytes() == table.mean(axis=0).tobytes()


@pytest.mark.parametrize("n_classes", range(2, 13))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(n=_ROW_COUNTS, zero_share=st.sampled_from([0.0, 0.3, 0.7]), max_iter=st.sampled_from([0, 1, 1000]),
       seed=st.integers(0, 2**32 - 1))
def test_em_gives_the_row_major_bytes(n_classes, n, zero_share, max_iter, seed):
    rng = np.random.default_rng(seed)
    probs = _simplex(rng, n, n_classes, zero_share)
    train = rng.random(n_classes) + 0.05
    train /= train.sum()
    got = _outcome(lambda: adapt_label_shift_em(ProbabilityMatrix(probs), PriorEstimate(train), max_iter=max_iter))
    want = _outcome(lambda: row_major_label_shift_em(probs, train, max_iter=max_iter))
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    adapted, priors, iterations, converged = want
    assert got.adapted_probs.entries.tobytes() == adapted.tobytes()
    assert got.adapted_probs.entries.flags.c_contiguous
    assert got.test_priors.priors.tobytes() == priors.tobytes()
    assert (got.iterations, got.converged) == (iterations, converged)


def _logits(rng, n, n_classes):
    # a wide spread underflows exp to exact zeros, so products of 0 and
    # negative logits give -0.0 cells
    return rng.normal(0.0, 1.0, (n, n_classes)) * 10.0 ** rng.uniform(-1.0, 2.5)


@pytest.mark.parametrize("n_classes", range(2, 13))
@settings(derandomize=True, deadline=None, max_examples=15)
@given(n=_ROW_COUNTS, scale=st.floats(1e-3, 1e3), offset=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_temperature_nll_gives_the_row_major_bytes(n_classes, n, scale, offset, seed):
    rng = np.random.default_rng(seed)
    logits = _logits(rng, n, n_classes)
    labels = rng.integers(0, n_classes, n)
    shift = rng.normal(0.0, 1.0, n_classes) if offset else np.zeros(n_classes)
    nll, grad_scale, grad_offset = calibration._temp_nll(np.ascontiguousarray(logits.T), labels, scale, shift)
    want_nll, want_scale, want_offset = row_major_temp_nll(logits, labels, scale, shift)
    assert repr((nll, grad_scale)) == repr((want_nll, want_scale))
    assert grad_offset.tobytes() == want_offset.tobytes()


@pytest.mark.parametrize("kind", ["temperature", "bias_corrected_temperature"])
@settings(derandomize=True, deadline=None, max_examples=20)
@given(n_classes=st.integers(2, 12), n=st.sampled_from([12, 40, 300]), seed=st.integers(0, 2**32 - 1))
def test_temperature_fits_give_the_row_major_bytes(kind, n_classes, n, seed):
    rng = np.random.default_rng(seed)
    logits = _logits(rng, n, n_classes)
    labels = rng.integers(0, n_classes, n)
    labels[:n_classes] = np.arange(n_classes)
    got = _outcome(lambda: fit_calibrator(kind, logits, labels).to_dict())
    # the same fit with every NLL pass taken on the row-major logits
    row_major = lambda cols, y, scale, offset: row_major_temp_nll(np.ascontiguousarray(cols.T), y, scale, offset)
    with mock.patch.object(calibration, "_temp_nll", row_major):
        want = _outcome(lambda: fit_calibrator(kind, logits, labels).to_dict())
    assert repr(got) == repr(want)
