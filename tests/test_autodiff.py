import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from i2vmatch import autodiff as ad
from i2vmatch.autodiff import (
    ShapeError,
    Tape,
    Tensor,
    add_n,
    backward,
    grad_check_params,
    mean_row_groups,
    nonlocal_block,
    pairwise_euclidean,
)

import reference_kernels as ref
from reference_kernels import (frobenius_sq, gather, grad_check, group_attention,
                               log_softmax_rows, matmul, mean_all, relu, scale, shift,
                               softmax_rows, square, sum_all, transpose)


@pytest.fixture(autouse=True)
def fresh_tape():
    with Tape():
        yield


def rand(rng, *shape):
    return Tensor(rng.standard_normal(shape))


# ---------------------------------------------------------------------------
# forward values
# ---------------------------------------------------------------------------

def test_matmul_identity():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), a)
    np.testing.assert_array_equal(out.data, a.data)


def test_matmul_dot_product():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    np.testing.assert_array_equal(out.data, [[11.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_softmax_symmetry():
    out = softmax_rows(Tensor([[0.0, 0.0, 0.0]]))
    np.testing.assert_allclose(out.data, [[1 / 3] * 3], rtol=0, atol=1e-15)


def test_softmax_extreme_logits_no_overflow():
    out = softmax_rows(Tensor([[1000.0, 0.0]]))
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [[1.0, 0.0]], atol=1e-300)


@settings(max_examples=50)
@given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
def test_softmax_rows_sum_to_one(m, n, seed):
    rng = np.random.default_rng(seed)
    x = 10.0 * rng.standard_normal((m, n))
    with Tape():
        y = softmax_rows(Tensor(x)).data
    assert np.all(y >= 0)
    np.testing.assert_allclose(y.sum(axis=1), np.ones(m), rtol=0, atol=1e-12)


def test_pairwise_zero_distance_is_epsilon():
    out = pairwise_euclidean(Tensor([[0.0, 0.0]]), Tensor([[0.0, 0.0]]))
    assert out.data[0, 0] == pytest.approx(0.0, abs=1e-5)
    assert out.data[0, 0] == pytest.approx(np.sqrt(ad.DISTANCE_EPS))


def test_pairwise_3_4_5():
    out = pairwise_euclidean(Tensor([[0.0, 0.0]]), Tensor([[3.0, 4.0]]))
    assert out.data[0, 0] == pytest.approx(5.0, abs=1e-9)


def test_pairwise_matches_loop_oracle():
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
    got = pairwise_euclidean(Tensor(x), Tensor(y)).data
    want = np.zeros((4, 5))
    for i in range(4):
        for j in range(5):
            want[i, j] = np.sqrt(np.sum((x[i] - y[j]) ** 2) + ad.DISTANCE_EPS)
    assert np.abs(got - want).max() <= 1e-10


@settings(max_examples=30)
@given(st.integers(1, 8), st.integers(1, 5), st.integers(0, 2 ** 31 - 1))
def test_pairwise_self_symmetric_zero_diagonal(m, d, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((m, d)))
    with Tape():
        dm = pairwise_euclidean(x, x).data
    np.testing.assert_array_equal(dm, dm.T)
    assert np.abs(np.diag(dm)).max() <= 1e-5


def test_relu_sign_split():
    out = ad.affine(Tensor([[-1.0, 2.0]]), Tensor(np.eye(2)), Tensor(np.zeros((1, 2))), relu=True)
    np.testing.assert_array_equal(out.data, [[0.0, 2.0]])


def test_frobenius_sq_value():
    assert frobenius_sq(Tensor([[1.0, 2.0], [3.0, 4.0]])).item() == 30.0


def test_mean_all_value():
    assert mean_all(Tensor([[2.0, 4.0], [6.0, 8.0]])).item() == 5.0


def test_mean_row_groups_value():
    x = Tensor(np.arange(12, dtype=float).reshape(4, 3))
    g = mean_row_groups(x, 2)
    np.testing.assert_allclose(g.data, [[1.5, 2.5, 3.5], [7.5, 8.5, 9.5]])


def test_gather_value():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    np.testing.assert_array_equal(gather(x, [0, 1], [2, 0]).data, [2.0, 3.0])


# ---------------------------------------------------------------------------
# backward values
# ---------------------------------------------------------------------------

def test_backward_sum_is_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    backward(sum_all(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_squared_norm():
    x = Tensor([1.0, 2.0], requires_grad=True)
    backward(sum_all(square(x)))
    np.testing.assert_array_equal(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(ShapeError):
        backward(square(x))


def test_backward_additivity():
    rng = np.random.default_rng(3)
    x = Tensor(rng.standard_normal((3, 2)), requires_grad=True)
    l1 = sum_all(square(x))
    l2 = mean_all(relu(x))
    backward(l1)
    backward(l2)
    split = x.grad.copy()
    x.zero_grad()
    backward(add_n([l1, l2]))
    np.testing.assert_allclose(x.grad, split, rtol=0, atol=0)


def test_stop_gradient_blocks_flow():
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    y = x.detach()
    assert not y.requires_grad
    loss = sum_all(square(y))
    assert not loss.requires_grad
    with pytest.raises(ValueError):
        backward(loss)
    assert x.grad is None


def test_tape_reverse_execution_order():
    tape = ad.active_tape()
    x = Tensor([[1.0, 2.0]], requires_grad=True)
    a = relu(x)
    b = square(a)
    c = sum_all(b)
    outs = [e.out for e in tape.entries]
    assert outs == [a, b, c]
    backward(c)
    assert x.grad is not None


def test_primitives_outside_a_tape_record_nothing(monkeypatch):
    x = Tensor(np.ones((2, 2)), requires_grad=True)
    with monkeypatch.context() as m:
        m.setattr(ad, "_STACK", [])  # outside any tape, the fixture's included
        outs = [matmul(x, x) for _ in range(1000)]
    assert not any(o.requires_grad for o in outs)
    assert ad.active_tape().entries == []
    with pytest.raises(ValueError, match="does not require grad"):
        backward(sum_all(outs[-1]))


def test_active_tape_raises_outside_a_tape(monkeypatch):
    monkeypatch.setattr(ad, "_STACK", [])
    with pytest.raises(ValueError, match="no tape is open"):
        ad.active_tape()


def test_no_grad_inside_a_tape_pauses_it():
    tape = ad.active_tape()
    x = Tensor([[1.0, -2.0]], requires_grad=True)
    with ad.no_grad():
        paused = matmul(x, Tensor(np.eye(2)))
        with pytest.raises(ValueError, match="no tape is open"):
            ad.active_tape()
    assert not paused.requires_grad and tape.entries == []
    assert ad.active_tape() is tape
    resumed = matmul(x, Tensor(np.eye(2)))
    assert resumed.requires_grad and [e.out for e in tape.entries] == [resumed]


def test_backward_writes_grad_only_to_leaves():
    x = Tensor([[1.0, -2.0, 3.0]], requires_grad=True)
    a = relu(x)
    b = square(a)
    c = sum_all(b)
    backward(c)
    assert a.grad is None and b.grad is None and c.grad is None
    np.testing.assert_array_equal(x.grad, [[2.0, 0.0, 6.0]])
    backward(c)
    np.testing.assert_array_equal(x.grad, [[4.0, 0.0, 12.0]])


# ---------------------------------------------------------------------------
# finite-difference checks
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gradcheck_matmul(seed):
    rng = np.random.default_rng(seed)
    b = rand(rng, 4, 2)

    def f(x):
        return sum_all(square(matmul(x, b)))

    err = grad_check(f, rand(rng, 3, 4))
    assert err <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gradcheck_softmax(seed):
    rng = np.random.default_rng(seed)

    def f(x):
        return sum_all(square(softmax_rows(x)))

    err = grad_check(f, rand(rng, 4, 5))
    assert err <= 1e-6


def test_gradcheck_softmax_first_component():
    rng = np.random.default_rng(11)

    def f(x):
        return sum_all(gather(softmax_rows(x), [0], [0]))

    err = grad_check(f, rand(rng, 1, 5))
    assert err <= 1e-6


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
@pytest.mark.parametrize(
    "make",
    [
        lambda x: sum_all(ad.affine(x, Tensor(np.eye(6)), Tensor(np.zeros((1, 6))), relu=True)),
        lambda x: mean_all(square(x)),
        lambda x: frobenius_sq(x),
        lambda x: sum_all(square(log_softmax_rows(x))),
        lambda x: sum_all(square(mean_row_groups(x, 2))),
        lambda x: sum_all(square(transpose(x))),
        lambda x: sum_all(square(shift(scale(x, 1.7), 0.3))),
    ],
    ids=["relu", "sq-mean", "frob", "logsoftmax", "groupmean", "transpose", "affine"],
)
def test_gradcheck_elementwise_suite(seed, make):
    rng = np.random.default_rng(seed)
    err = grad_check(make, rand(rng, 4, 6))
    assert err <= 1e-4, err


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
def test_gradcheck_pairwise_euclidean(seed):
    rng = np.random.default_rng(seed)
    y = rand(rng, 5, 3)

    def f(x):
        return sum_all(pairwise_euclidean(x, y))

    err = grad_check(f, rand(rng, 4, 3))
    assert err <= 1e-4, err


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_pairwise_euclidean_self(seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((5, 5))

    # an asymmetric weighting, so both halves of the symmetrized backward count
    def f(x):
        return sum_all(matmul(pairwise_euclidean(x, x), Tensor(w)))

    err = grad_check(f, rand(rng, 5, 3))
    assert err <= 1e-4, err


def test_pairwise_self_records_one_input_and_matches_copy():
    rng = np.random.default_rng(8)
    x = Tensor(rng.standard_normal((6, 3)), requires_grad=True)
    tape = ad.active_tape()
    same = pairwise_euclidean(x, x)
    assert tape.entries[-1].inputs == (x,)
    copy = pairwise_euclidean(x, Tensor(x.data.copy()))
    np.testing.assert_array_equal(same.data, copy.data)
    # the single-input backward equals the sum of both sides of a two-input one
    w = Tensor(rng.standard_normal((6, 6)))
    y = Tensor(x.data.copy(), requires_grad=True)
    backward(sum_all(matmul(pairwise_euclidean(x, x), w)))
    z = Tensor(x.data.copy(), requires_grad=True)
    backward(sum_all(matmul(pairwise_euclidean(y, z), w)))
    np.testing.assert_allclose(x.grad, y.grad + z.grad, rtol=0, atol=1e-12)


def test_group_attention_matches_per_block_softmax():
    rng = np.random.default_rng(12)
    q, k, v = rand(rng, 6, 3), rand(rng, 6, 3), rand(rng, 6, 2)
    out = group_attention(q, k, v, 3).data
    for s in (slice(0, 3), slice(3, 6)):
        qs, ks, vs = Tensor(q.data[s]), Tensor(k.data[s]), Tensor(v.data[s])
        want = matmul(softmax_rows(matmul(qs, transpose(ks))), vs).data
        np.testing.assert_allclose(out[s], want, rtol=0, atol=1e-14)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("group", [1, 2, 6], ids=["single", "divisor", "all"])
def test_gradcheck_group_attention(seed, group):
    rng = np.random.default_rng(seed)
    q, k, v = rand(rng, 6, 3), rand(rng, 6, 3), rand(rng, 6, 2)
    for t in (q, k, v):
        t.requires_grad = True
    errors = grad_check_params(
        lambda: sum_all(square(group_attention(q, k, v, group))),
        {"q": q, "k": k, "v": v})
    for name, err in errors.items():
        assert err <= 1e-6, (name, err)


def test_item_rejects_a_tensor_of_more_than_one_value():
    with pytest.raises(ShapeError, match=r"^item\(\) on tensor of shape \(2,\)$"):
        Tensor([1.0, 2.0]).item()
    assert Tensor([[3.5]]).item() == 3.5


@pytest.mark.parametrize("group", [4, 0])
def test_mean_row_groups_rejects_rows_that_do_not_divide(group):
    with pytest.raises(ShapeError, match=f"6 rows not divisible into groups of {group}$"):
        mean_row_groups(Tensor(np.zeros((6, 2))), group)


def test_group_attention_shape_errors():
    # the block attention runs inside nonlocal_block, which checks its groups
    rng = np.random.default_rng(13)
    x, w_theta, w_phi = rand(rng, 6, 4), rand(rng, 4, 3), rand(rng, 4, 3)
    w_g, w_z = rand(rng, 4, 2), rand(rng, 2, 4)
    with pytest.raises(ShapeError, match="divisible"):
        nonlocal_block(x, w_theta, w_phi, w_g, w_z, 4)
    with pytest.raises(ShapeError, match="divisible"):
        nonlocal_block(x, w_theta, w_phi, w_g, w_z, 0)
    with pytest.raises(ShapeError, match="disagree"):
        nonlocal_block(x, w_theta, rand(rng, 4, 2), w_g, w_z, 3)
    with pytest.raises(ShapeError, match="disagree"):
        nonlocal_block(x, w_theta, w_phi, rand(rng, 5, 2), w_z, 2)
    with pytest.raises(ShapeError, match="disagree"):
        nonlocal_block(x, w_theta, w_phi, w_g, rand(rng, 2, 3), 2)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("group", [1, 2, 6], ids=["single", "divisor", "all"])
def test_gradcheck_nonlocal_block(seed, group):
    rng = np.random.default_rng(seed)
    leaves = {"x": rand(rng, 6, 4), "theta": rand(rng, 4, 3), "phi": rand(rng, 4, 3),
              "g": rand(rng, 4, 2), "z": rand(rng, 2, 4)}
    for t in leaves.values():
        t.requires_grad = True
    errors = grad_check_params(
        lambda: sum_all(square(nonlocal_block(*leaves.values(), group))), leaves)
    for name, err in errors.items():
        assert err <= 1e-6, (name, err)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("relu_on", [True, False], ids=["relu", "linear"])
def test_gradcheck_affine(seed, relu_on):
    rng = np.random.default_rng(seed)
    leaves = {"x": rand(rng, 5, 4), "w": rand(rng, 4, 3), "b": rand(rng, 1, 3)}
    for t in leaves.values():
        t.requires_grad = True
    errors = grad_check_params(
        lambda: sum_all(square(ad.affine(*leaves.values(), relu=relu_on))), leaves)
    for name, err in errors.items():
        assert err <= 1e-6, (name, err)


def test_affine_shape_errors():
    rng = np.random.default_rng(14)
    x, w = rand(rng, 5, 4), rand(rng, 4, 3)
    with pytest.raises(ShapeError, match="disagree"):
        ad.affine(x, rand(rng, 3, 3), rand(rng, 1, 3))
    with pytest.raises(ShapeError, match="disagree"):
        ad.affine(x, w, rand(rng, 5, 3))
    with pytest.raises(ShapeError, match="2-d"):
        ad.affine(Tensor(np.zeros(4)), w, rand(rng, 1, 3))


def test_gradcheck_linear_is_exact():
    err = grad_check(sum_all, Tensor(np.array([[1.0, -2.0, 0.5]])))
    assert err <= 1e-9


def test_gradcheck_detects_planted_factor_two():
    # broken primitive: doubles the true gradient
    def bad_double(x):
        out = Tensor(x.data * 1.0)

        def bw(g):
            return (2.0 * g,)

        return ad._record(out, (x,), bw)

    def f(x):
        return sum_all(square(bad_double(x)))

    err = grad_check(f, Tensor(np.array([[1.0, 2.0], [0.5, 1.5]])))
    assert err > 1e-4
    assert err == pytest.approx(1.0, rel=1e-3)


def test_grad_check_params_reads_each_output_as_its_scalar_form():
    rng = np.random.default_rng(3)
    x, w, u = (Tensor(rng.standard_normal(shape), requires_grad=True)
               for shape in ((3, 4), (4, 2), (2, 2)))

    def outputs():
        y = matmul(x, w)
        return {"sq": sum_all(square(y)), "lsm": mean_all(log_softmax_rows(y)),
                "u": sum_all(square(u))}

    params = {"x": x, "w": w, "u": u}
    swept = grad_check_params(outputs, params)
    assert list(swept) == ["sq", "lsm", "u"]
    for key in swept:
        assert swept[key] == grad_check_params(lambda: outputs()[key], params)
    assert swept["sq"]["u"] == 0.0  # outside the output's ancestry


def test_gradcheck_reports_nonfinite_coordinate():
    def f(x):
        # log goes NaN once the perturbed coordinate turns negative
        with np.errstate(invalid="ignore"):
            bad = Tensor(np.log(x.data))
        return sum_all(ad._record(bad, (x,), lambda g: (g / x.data,)))

    with pytest.raises(ad.NonFiniteError, match="coordinate"):
        grad_check(f, Tensor(np.array([[1e-6, 1.0]])))


def test_no_grad_disables_recording():
    x = Tensor([[1.0]], requires_grad=True)
    with ad.no_grad():
        y = square(x)
    assert not y.requires_grad


# ---------------------------------------------------------------------------
# rewritten kernels against their reference forms, bit for bit
# ---------------------------------------------------------------------------

def _value_and_grads(build, leaves, upstream):
    """The value of ``build()`` scaled by ``upstream``, and every leaf's
    gradient, on a fresh tape."""
    with Tape():
        for t in leaves:
            t.zero_grad()
        out = build()
        backward(scale(out, upstream))
        return out.data.copy(), [t.grad.copy() for t in leaves]


def _assert_same_bits(build, reference, leaves, upstream=1.0):
    got, got_grads = _value_and_grads(build, leaves, upstream)
    want, want_grads = _value_and_grads(reference, leaves, upstream)
    np.testing.assert_array_equal(ref.bits(got), ref.bits(want))
    for g, w in zip(got_grads, want_grads):
        np.testing.assert_array_equal(ref.bits(g), ref.bits(w))


def _tied_distances(rng, positive):
    """Distances on a coarse grid, so most rows hold ties for the hardest pick.
    In every other row the positives all lie nearer than the negatives, so
    at a small margin those hinges are inactive or exactly at the kink."""
    d = np.round(rng.uniform(0.0, 1.0, positive.shape), 1)
    separated = np.where(positive, 0.5 * d, 0.5 + 0.5 * d)
    separated[1::2] = d[1::2]
    return np.round(separated, 2)


@pytest.mark.parametrize("shape", [(256, 256), (16, 256)], ids=["frames", "clips"])
@pytest.mark.parametrize("margin", [0.0, 0.3])
@pytest.mark.parametrize("upstream", [1.0, -0.7])
def test_triplet_hinge_mean_matches_unfused_chain(shape, margin, upstream):
    from i2vmatch.losses import _triplet_masks

    rng = np.random.default_rng(20)
    m, n = shape
    anchor_labels = np.repeat(np.arange(16), m // 16)
    candidate_labels = np.repeat(np.arange(16), n // 16)
    positive, negative = _triplet_masks(anchor_labels, candidate_labels, exclude_self=m == n)
    d = Tensor(_tied_distances(rng, positive), requires_grad=True)
    # the mining of losses._hardest_triplet: first index wins ties
    rows = np.arange(m)
    pos = (rows, np.argmax(np.where(positive, d.data, -np.inf), axis=1))
    neg = (rows, np.argmin(np.where(negative, d.data, np.inf), axis=1))
    _assert_same_bits(lambda: ad.triplet_hinge_mean(d, pos, neg, margin),
                      lambda: ref.triplet_hinge_mean(d, pos, neg, margin),
                      [d], upstream)


@pytest.mark.parametrize("rows", [256, 16])
@pytest.mark.parametrize("upstream", [1.0, -0.7])
def test_cross_entropy_mean_matches_unfused_chain(rows, upstream):
    # features and the classifier weight of a benchmark step: 16 dims, 40 ids
    rng = np.random.default_rng(21)
    x = Tensor(rng.standard_normal((rows, 16)), requires_grad=True)
    w = Tensor(3.0 * rng.standard_normal((16, 40)) / 4.0, requires_grad=True)
    labels = rng.integers(0, 40, rows)
    _assert_same_bits(lambda: ad.cross_entropy_mean(x, w, labels),
                      lambda: ref.cross_entropy_mean(x, w, labels),
                      [x, w], upstream)


def test_cross_entropy_mean_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(4, 3\) x \(2, 5\)"):
        ad.cross_entropy_mean(Tensor(np.zeros((4, 3))), Tensor(np.zeros((2, 5))), [0, 1, 2, 3])


@pytest.mark.parametrize("shape", [(256, 256), (256, 16)], ids=["distances", "features"])
@pytest.mark.parametrize("b_grad", [True, False], ids=["b-grad", "b-detached"])
@pytest.mark.parametrize("upstream", [1.0, -0.7])
def test_scaled_sq_diff_matches_unfused_chain(shape, b_grad, upstream):
    # the transfer losses' shapes at t=16; a scale that is no power of two,
    # unlike their 1/(N*T), so that every product rounds
    rng = np.random.default_rng(23)
    a = Tensor(rng.standard_normal(shape), requires_grad=True)
    b = Tensor(rng.standard_normal(shape), requires_grad=b_grad)
    b.data[0] = a.data[0]  # a row of zero differences
    _assert_same_bits(lambda: ad.scaled_sq_diff(a, b, 0.3),
                      lambda: ref.scaled_sq_diff(a, b, 0.3),
                      [a, b] if b_grad else [a], upstream)


def test_scaled_sq_diff_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\) vs \(3, 2\)"):
        ad.scaled_sq_diff(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))), 1.0)


@pytest.mark.parametrize("form", ["self", "two-input"])
def test_pairwise_euclidean_matches_reference_expression(form):
    rng = np.random.default_rng(22)
    x = Tensor(rng.standard_normal((256, 16)), requires_grad=True)
    # repeated rows put zero and slightly negative squared distances
    # through the clamp
    x.data[1::16] = x.data[0::16]
    y = x if form == "self" else Tensor(rng.standard_normal((40, 16)), requires_grad=True)
    y.data[:8] = x.data[:8]
    w = Tensor(rng.standard_normal((y.data.shape[0], 3)))
    leaves = [x] if y is x else [x, y]
    _assert_same_bits(lambda: sum_all(matmul(pairwise_euclidean(x, y), w)),
                      lambda: sum_all(matmul(ref.pairwise_euclidean(x, y), w)),
                      leaves)


def _nonlocal_leaves(rng, rows, channels, inner, scale=1.0):
    """An input and the four weights of a block; ``scale`` stretches the
    query projection, and with it the attention logits."""
    shapes = [(rows, channels), (channels, inner), (channels, inner), (channels, inner),
              (inner, channels)]
    leaves = [Tensor(rng.standard_normal(s) / np.sqrt(s[0] if i else 1), requires_grad=True)
              for i, s in enumerate(shapes)]
    leaves[1].data *= scale
    return leaves


@pytest.mark.parametrize("group", [1, 4, 32, 96])
@pytest.mark.parametrize("scale", [1.0, 30.0], ids=["unit", "peaked"])
def test_group_attention_matches_out_of_place_softmax(group, scale):
    # the in-place block softmax of nonlocal_block against the chain with the
    # out-of-place one; 96 rows as in a 3-clip video batch, and at scale 30
    # the logits span hundreds, so the max subtraction and exp underflow are
    # exercised
    rng = np.random.default_rng(group)
    leaves = _nonlocal_leaves(rng, 96, 8, 5, scale)
    w = Tensor(rng.standard_normal((8, 3)))
    _assert_same_bits(lambda: sum_all(matmul(nonlocal_block(*leaves, group), w)),
                      lambda: sum_all(matmul(ref.nonlocal_block(*leaves, group), w)),
                      leaves)


@pytest.mark.parametrize("rows, group", [(256, 16), (64, 4), (12, None)],
                         ids=["t16", "t4", "all-rows"])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-const"])
def test_nonlocal_block_matches_unfused_chain(rows, group, x_grad):
    # t16: a benchmark step's 16 clips of 16 frames at 24 channels
    rng = np.random.default_rng(rows)
    leaves = _nonlocal_leaves(rng, rows, 24, 12)
    leaves[0].requires_grad = x_grad
    w = Tensor(rng.standard_normal((24, 3)))
    grads = leaves if x_grad else leaves[1:]
    _assert_same_bits(lambda: sum_all(matmul(nonlocal_block(*leaves, group), w)),
                      lambda: sum_all(matmul(ref.nonlocal_block(*leaves, group), w)),
                      grads, upstream=-0.7)


def _softmax_rows_block(x, w_theta, w_phi, w_g, w_z):
    """An all-rows block as the plain chain: softmax_rows of the scores."""
    att = softmax_rows(matmul(matmul(x, w_theta), transpose(matmul(x, w_phi))))
    return ref.add(matmul(matmul(att, matmul(x, w_g)), w_z), x)


@pytest.mark.parametrize("rows", [4, 32])
@pytest.mark.parametrize("scale", [1.0, 30.0], ids=["unit", "peaked"])
def test_nonlocal_block_is_near_the_softmax_rows_chain(rows, scale):
    # normalising through the value product moves the last bits only: values
    # within 1e-14 and gradients within 1e-12 of each tensor's largest entry
    rng = np.random.default_rng(30 + rows)
    leaves = _nonlocal_leaves(rng, rows, 8, 5, scale)
    w = Tensor(rng.standard_normal((8, 3)))
    got, want = nonlocal_block(*leaves).data, _softmax_rows_block(*leaves).data
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    got_grads, want_grads = (_value_and_grads(lambda: sum_all(matmul(block(*leaves), w)),
                                              leaves, 1.0)[1]
                             for block in (nonlocal_block, _softmax_rows_block))
    for g, h in zip(got_grads, want_grads):
        assert np.abs(g - h).max() <= 1e-12 * np.abs(h).max()


@pytest.mark.parametrize("scale", [30.0, 1e3])
def test_nonlocal_block_raises_no_floating_point_error_at_peaked_logits(scale):
    # each query's normaliser holds exp(0) from its max key, so it is >= 1 and
    # the divide never meets 0, however far the other weights underflow
    rng = np.random.default_rng(31)
    leaves = _nonlocal_leaves(rng, 96, 8, 5, scale)
    w = Tensor(rng.standard_normal((8, 3)))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        value, grads = _value_and_grads(
            lambda: sum_all(matmul(nonlocal_block(*leaves, 32), w)), leaves, 1.0)
    assert np.isfinite(value).all() and all(np.isfinite(g).all() for g in grads)


@pytest.mark.parametrize("shape", [(256, 20, 24), (256, 24, 16), (3, 2, 4)],
                         ids=["t16-first", "t16-last", "small"])
@pytest.mark.parametrize("relu_on", [True, False], ids=["relu", "linear"])
@pytest.mark.parametrize("x_grad", [True, False], ids=["x-grad", "x-const"])
def test_affine_matches_unfused_chain(shape, relu_on, x_grad):
    rng = np.random.default_rng(sum(shape))
    m, k, n = shape
    x = Tensor(rng.standard_normal((m, k)), requires_grad=x_grad)
    w = Tensor(rng.standard_normal((k, n)) / np.sqrt(k), requires_grad=True)
    b = Tensor(rng.standard_normal((1, n)), requires_grad=True)
    x.data[0] = 0.0  # a row of pre-activations equal to the bias
    u = Tensor(rng.standard_normal((n, 3)))
    _assert_same_bits(lambda: sum_all(matmul(ad.affine(x, w, b, relu=relu_on), u)),
                      lambda: sum_all(matmul(ref.affine(x, w, b, relu=relu_on), u)),
                      [x, w, b] if x_grad else [w, b])


@pytest.mark.parametrize("n", [1, 2, 7])
def test_add_n_matches_chain_of_adds(n):
    rng = np.random.default_rng(n)
    terms = [Tensor(rng.standard_normal(()), requires_grad=True) for _ in range(n)]
    _assert_same_bits(lambda: ad.add_n(terms), lambda: ref.add_n(terms), terms, -0.7)
    tape = ad.active_tape()
    before = len(tape.entries)
    ad.add_n(terms)
    assert len(tape.entries) == before + 1
    with pytest.raises(ShapeError, match="disagree"):
        ad.add_n([Tensor(np.zeros(2)), Tensor(np.zeros((1, 2)))])


@settings(max_examples=200)
@given(hnp.arrays(np.float64, st.integers(1, 64),
                  elements=st.floats(allow_nan=True, allow_infinity=True,
                                     allow_subnormal=True)))
@example(np.array([-0.0, 0.0, -np.inf, np.inf, np.nan, 5e-324, -5e-324]))
def test_relu_matches_where_bit_for_bit(a):
    # the clamp affine runs on its pre-activation, fed ``a``'s exact bits
    got = ad._relu_in_place(a.copy())
    np.testing.assert_array_equal(ref.bits(got), ref.bits(np.where(a > 0, a, 0.0)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_triplet_hinge_mean(seed):
    rng = np.random.default_rng(seed)
    # each row's positive and negative pick differ, as mining guarantees
    rows = np.arange(6)
    pos, neg = (rows, [1, 2, 3, 0, 5, 4]), (rows, [2, 0, 0, 1, 1, 1])

    def f(x):
        return ad.triplet_hinge_mean(x, pos, neg, 0.5)

    err = grad_check(f, Tensor(rng.uniform(0.0, 2.0, (6, 6))))
    assert err <= 1e-6, err


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_cross_entropy_mean(seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 5, 4)
    x, w = rand(rng, 4, 3), rand(rng, 3, 5)
    x.requires_grad = w.requires_grad = True
    errors = grad_check_params(lambda: ad.cross_entropy_mean(x, w, labels), {"x": x, "w": w})
    for err in errors.values():
        assert err <= 1e-6, err

