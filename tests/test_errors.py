"""One rule for every scalar argument, in errors.py: each public scalar
parameter rejects a bool, a string, None, an int too large for a float and a
value out of its range with a DomainError that names it, and reads a Python or
NumPy number as the equal float, to the bit.  A spot (x, y, z, s0) takes one
more rule: a real ndarray reads as the equal float64 array, and a list, or an
array with one entry out of (0, inf), is rejected too.  A curve's samples and
the point a payoff or curve is read at take only the kind: real numbers.  A
result takes one rule as well: a float for numbers in, else a float64 ndarray."""

import inspect

import numpy as np
import pytest

import lvkernel as lv
from lvkernel.errors import DomainError

MODEL = lv.BSMModel(0.3)
SPEC = lv.KernelSpec(MODEL)
GRID = lv.SpatialGrid.regular(40.0, 0.5)
CALL = lv.CallPayoff(15.0)
FINE_GRID = lv.SpatialGrid(1.0, 40.0, 0.05)

NOT_NUMBERS = {"bool": True, "numpy-bool": np.True_, "str": "0.1", "none": None}
NOT_FINITE = {"nan": float("nan"), "inf": float("inf")}
NOT_POSITIVE = {"zero": 0, "negative": -1}
TOO_LARGE = {"huge-int": 10**400}  # float() of it raised a bare OverflowError
# the values each kind of parameter rejects; a curve's samples, or the point a
# payoff or curve is read at, may be any real numbers, so only their kind is
# checked; a count is a Python or NumPy integer
BAD = {
    "positive": {**NOT_NUMBERS, **NOT_FINITE, **NOT_POSITIVE, **TOO_LARGE},
    "finite": {**NOT_NUMBERS, **NOT_FINITE, **TOO_LARGE},
    "spot": {**NOT_NUMBERS, **NOT_FINITE, **NOT_POSITIVE, **TOO_LARGE, "list": [15.0, 16.0],
             "bad-entry": np.array([14.0, np.nan, 16.0])},
    "samples": {**NOT_NUMBERS, **TOO_LARGE, "str-list": ["1", "2"], "bool-list": [False, True]},
    "count": {**NOT_NUMBERS, "float": 5.0, "numpy-float": np.float64(5.0), "too-few": 2},
}
SPOT_NAMES = ("x", "y", "z", "s0")


def _quote(price):
    return lambda t=0.1, K=15.0, x=15.0: price(2, MODEL, t, K, x)


def _bs(oracle):
    return lambda t=0.1, K=15.0, x=15.0, sigma=0.3, r=0.0: oracle(t, K, x, sigma, r)


def _bs_kernel(t=0.1, x=15.0, y=15.5, sigma=0.3, r=0.0):
    return lv.bs_kernel(t, x, y, sigma, r)


def _hagan_woodward(t=0.1, K=15.0, s0=15.0, sigma=0.3, r=0.0):
    return lv.hagan_woodward_vol(t, K, s0, sigma, 0.5, r)


def _butterfly(k1=14.0, k=15.0, k2=16.0, t=0.1, x=15.0):
    return lv.price_butterfly_closed(2, MODEL, t, lv.ButterflyPayoff(k1, k, k2), x)


def _greeks(x=15.0, dx=0.01):
    return lv.greeks(lambda t, x: lv.price_call_closed(2, MODEL, t, 15.0, x), 0.1, x, dx)


def _jet(model):
    return lambda z: tuple(vars(model.jet(z)).values())


def _curve(cls):
    def build(x=(1.0, 2.0), values=(0.0, 1.0)):
        curve = cls(x, values)
        return curve.x, curve.values
    return build


JET_MODELS = {
    "BSMModel": MODEL,
    "CEVModel": lv.CEVModel(0.3, 0.5),
    "TimeDependentBSMModel": lv.TimeDependentBSMModel(0.3, 0.2, 0.1),
    "CustomModel": lv.CustomModel(lambda z: lv.CoefficientJet(0.3 * z, 0.3, 0.0, 0.0,
                                                              0.1 * z, 0.1, -0.1)),
}


def _grid(x_min=1.0, x_max=9.0, dx=1.0):
    grid = lv.SpatialGrid(x_min, x_max, dx)
    return grid.nodes, grid.weights


# (function, parameter, the name its message gives, kind, an integral value it
# accepts); the key is the public callable (or a model's jet) and the parameter
PARAMETERS = {
    **{f"{price.__name__}-{name}": (_quote(price), name, message, kind, good)
       for price in (lv.price_call_closed, lv.price_put)
       for name, message, kind, good in (("t", "time", "positive", 1),
                                         ("K", "strike", "positive", 15), ("x", "x", "spot", 15))},
    "price_butterfly_closed-t": (_butterfly, "t", "time", "positive", 1),
    "price_butterfly_closed-x": (_butterfly, "x", "x", "spot", 15),
    "price_quadrature-x": (lambda x: lv.price_quadrature(SPEC, 0.1, CALL, x, FINE_GRID),
                           "x", "x", "spot", 15),
    **{f"ButterflyPayoff-{k}": (_butterfly, k, "strike", "positive", good)
       for k, good in (("k1", 14), ("k", 15), ("k2", 16))},
    "CallPayoff-strike": (lambda strike: lv.CallPayoff(strike)(GRID.nodes),
                          "strike", "strike", "positive", 5),
    "PutPayoff-strike": (lambda strike: lv.PutPayoff(strike)(GRID.nodes),
                         "strike", "strike", "positive", 5),
    "kernel_eval-t": (lambda t: lv.kernel_eval(SPEC, t, 15.0, 15.5), "t", "time", "positive", 1),
    "kernel_eval-x": (lambda x: lv.kernel_eval(SPEC, 0.1, x, 15.5), "x", "x", "spot", 15),
    "kernel_eval-y": (lambda y: lv.kernel_eval(SPEC, 0.1, 15.0, y), "y", "y", "spot", 16),
    "kernel_matrix-tau": (lambda tau: lv.kernel_matrix(SPEC, tau, GRID),
                          "tau", "time", "positive", 1),
    "greeks-x": (_greeks, "x", "x", "spot", 15),
    "greeks-dx": (_greeks, "dx", "dx", "positive", 1),
    "BootstrapConfig-t_total": (
        lambda t_total: lv.bootstrap_solve(lv.BootstrapConfig(SPEC, t_total, 10, GRID), CALL).values,
        "t_total", "t_total", "positive", 1),
    "CNConfig-dt": (lambda dt: lv.cn_solve(MODEL, lv.CNConfig(GRID, dt, 2.0), CALL).values,
                    "dt", "dt", "positive", 1),
    "CNConfig-t_total": (
        lambda t_total: lv.cn_solve(MODEL, lv.CNConfig(GRID, 0.25, t_total), CALL).values,
        "t_total", "t_total", "positive", 1),
    "bootstrap_error_table-times": (
        lambda times: lv.bootstrap_error_table(MODEL, 15.0, [times], 10, GRID),
        "times", "time", "positive", 1),
    **{f"{oracle.__name__}-{name}": (_bs(oracle), name, name, kind, good)
       for oracle in (lv.bs_exact, lv.bs_delta, lv.bs_gamma)
       for name, kind, good in (("t", "positive", 1), ("K", "positive", 15), ("x", "spot", 15),
                                ("sigma", "positive", 1), ("r", "finite", 0))},
    **{f"bs_kernel-{name}": (_bs_kernel, name, name, kind, good)
       for name, kind, good in (("t", "positive", 1), ("x", "positive", 15), ("y", "spot", 16),
                                ("sigma", "positive", 1), ("r", "finite", 0))},
    **{f"hagan_woodward_vol-{name}": (_hagan_woodward, name, name, kind, good)
       for name, kind, good in (("t", "positive", 1), ("K", "positive", 15), ("s0", "spot", 15),
                                ("sigma", "positive", 1), ("r", "finite", 0))},
    "hagan_woodward_price-s0": (lambda s0: lv.hagan_woodward_price(0.1, 15.0, s0, 0.3, 0.5),
                                "s0", "s0", "spot", 15),
    # basepoint hands back the x or y it was given as a float or a float64 array
    "basepoint-x": (lambda x: lv.basepoint(lv.BasepointRule.AT_X, x, 2.0), "x", "x", "spot", 15),
    "basepoint-y": (lambda y: lv.basepoint(lv.BasepointRule.AT_Y, 2.0, y), "y", "y", "spot", 16),
    **{f"SpatialGrid-{name}": (_grid, name, name, "positive", good)
       for name, good in (("x_min", 1), ("x_max", 9), ("dx", 1))},
    # regular's x_min is its dx: dx is checked first, so a message names dx
    "SpatialGrid.regular-dx": (lambda dx: lv.SpatialGrid.regular(9.0, dx).nodes,
                               "dx", "dx", "positive", 1),
    "SpatialGrid.regular-x_max": (lambda x_max: lv.SpatialGrid.regular(x_max, 1.0).nodes,
                                  "x_max", "x_max", "finite", 9),
    "BSMModel-sigma": (lambda sigma: lv.price_call_closed(2, lv.BSMModel(sigma), 0.1, 15.0, 15.0),
                       "sigma", "sigma", "positive", 1),
    "BSMModel-r": (lambda r: lv.price_call_closed(2, lv.BSMModel(0.3, r), 0.1, 15.0, 15.0),
                   "r", "r", "finite", 0),
    "TimeDependentBSMModel-sigma_dot0": (
        lambda sigma_dot0: lv.price_call_closed(2, lv.TimeDependentBSMModel(0.3, sigma_dot0),
                                                0.1, 15.0, 15.0),
        "sigma_dot0", "sigma_dot0", "finite", 1),
    "CEVModel-alpha": (
        lambda alpha: lv.price_call_closed(2, lv.CEVModel(0.3, alpha), 0.1, 15.0, 15.0),
        "alpha", "alpha", "positive", 1),
    **{f"{name}.jet-z": (_jet(model), "z", "z", "spot", 15) for name, model in JET_MODELS.items()},
    **{f"{cls.__name__}-{name}": (_curve(cls), name, name, "samples", None)
       for cls in (lv.PriceCurve, lv.SampledPayoff) for name in ("x", "values")},
    **{f"{type(payoff).__name__}.__call__-y": (payoff, "y", "y", "samples", 16)
       for payoff in (CALL, lv.PutPayoff(15.0), lv.ButterflyPayoff(14.0, 15.0, 16.0))},
    "PriceCurve.value_at-x": (lv.PriceCurve((1.0, 2.0), (0.0, 1.0)).value_at,
                              "x", "x", "samples", 2),
    "SampledPayoff.__call__-x": (lv.SampledPayoff((1.0, 2.0), (0.0, 1.0)), "x", "x", "samples", 2),
    "simpson_weights-n_nodes": (lambda n_nodes: lv.simpson_weights(n_nodes, 0.1),
                                "n_nodes", "n_nodes", "count", None),
    "simpson_weights-dx": (lambda dx: lv.simpson_weights(5, dx), "dx", "dx", "positive", 1),
}

REJECTIONS = [pytest.param(fn, parameter, name, bad, id=f"{key}-{label}")
              for key, (fn, parameter, name, kind, _) in PARAMETERS.items()
              for label, bad in BAD[kind].items()]


@pytest.mark.parametrize("fn, parameter, name, bad", REJECTIONS)
def test_a_bad_scalar_is_a_domain_error_naming_it(fn, parameter, name, bad):
    # True and np.True_ priced as 1; "0.1" and None raised a bare TypeError
    with pytest.raises(DomainError, match=rf"(^|\s){name}\b"):
        fn(**{parameter: bad})


def _bits(result):
    """A result's types and bytes, for a float, an array or a tuple or list of them."""
    if isinstance(result, (tuple, list)):
        return [_bits(r) for r in result]
    return type(result), np.asarray(result).tobytes()


ACCEPTED = [pytest.param(fn, parameter, good, id=key)
            for key, (fn, parameter, _, _, good) in PARAMETERS.items() if good is not None]


@pytest.mark.parametrize("kind", [int, np.int64, np.float64])
@pytest.mark.parametrize("fn, parameter, good", ACCEPTED)
def test_a_python_or_numpy_number_is_its_float(fn, parameter, good, kind):
    assert _bits(fn(**{parameter: kind(good)})) == _bits(fn(**{parameter: float(good)}))


SPOTS_ACCEPTED = [pytest.param(fn, parameter, good, id=key)
                  for key, (fn, parameter, _, kind, good) in PARAMETERS.items()
                  if kind == "spot" and good is not None]


@pytest.mark.parametrize("shape", [(), (2,)], ids=["0-d", "1-d"])
@pytest.mark.parametrize("fn, parameter, good", SPOTS_ACCEPTED)
def test_an_int_array_of_spots_is_its_float64_array(fn, parameter, good, shape):
    spots = np.full(shape, good) + np.arange(np.prod(shape, dtype=int)).reshape(shape)
    assert spots.dtype.kind == "i"
    assert _bits(fn(**{parameter: spots})) == _bits(fn(**{parameter: spots.astype(float)}))


def test_samples_take_lists_of_numbers():
    for cls in (lv.PriceCurve, lv.SampledPayoff):
        assert _bits(_curve(cls)([1, 2], [0, 1])) == _bits(_curve(cls)())
    for payoff in (CALL, lv.PutPayoff(15.0), lv.SampledPayoff((14.0, 16.0), (0.0, 1.0))):
        assert _bits(payoff([14, 16])) == _bits(payoff(np.array([14.0, 16.0])))


def _public_callables():
    """lvkernel's public callables by name, and the jet of each concrete model."""
    out = {name: getattr(lv, name) for name in lv.__all__ if callable(getattr(lv, name))}
    out.update({f"{name}.jet": cls.jet for name, cls in list(out.items())
                if isinstance(cls, type) and issubclass(cls, lv.Model)
                and not inspect.isabstract(cls)})
    return out


def test_every_spot_parameter_has_a_row():
    # a new x, y, z or s0 cannot skip the rule: it needs a row in PARAMETERS
    missing = []
    for name, fn in _public_callables().items():
        try:
            parameters = inspect.signature(fn).parameters
        except ValueError:  # no signature to read
            continue
        missing += [f"{name}-{p}" for p in parameters
                    if p in SPOT_NAMES and f"{name}-{p}" not in PARAMETERS]
    assert missing == []


# One rule for every result, in errors.py: a public function whose spot or
# point arguments are all real numbers, as given, returns a Python float;
# otherwise a float64 ndarray, of the shape its arguments broadcast to, a 0-d
# one for a 0-d array.  Each row varies one spot or point; any other is a float.
RESULTS = {  # the public callable and its parameter: (function of it, an integral good value)
    **{f"{price.__name__}-x": (lambda x, price=price: _quote(price)(x=x), 15)
       for price in (lv.price_call_closed, lv.price_put)},
    "price_butterfly_closed-x": (lambda x: _butterfly(x=x), 15),
    "price_quadrature-x": (lambda x: lv.price_quadrature(SPEC, 0.1, CALL, x, FINE_GRID), 15),
    "kernel_eval-x": (lambda x: lv.kernel_eval(SPEC, 0.1, x, 15.5), 15),
    "kernel_eval-y": (lambda y: lv.kernel_eval(SPEC, 0.1, 15.0, y), 16),
    "basepoint-x": (lambda x: lv.basepoint(lv.BasepointRule.MIDPOINT, x, 2.0), 15),
    "basepoint-y": (lambda y: lv.basepoint(lv.BasepointRule.MIDPOINT, 2.0, y), 16),
    **{f"{oracle.__name__}-x": (lambda x, oracle=oracle: _bs(oracle)(x=x), 15)
       for oracle in (lv.bs_exact, lv.bs_delta, lv.bs_gamma)},
    "bs_kernel-y": (lambda y: _bs_kernel(y=y), 16),
    "hagan_woodward_vol-s0": (lambda s0: _hagan_woodward(s0=s0), 15),
    "hagan_woodward_price-s0": (lambda s0: lv.hagan_woodward_price(0.1, 15.0, s0, 0.3, 0.5), 15),
    "greeks-x": (lambda x: _greeks(x=x), 15),
    **{f"{type(payoff).__name__}.__call__-y": (payoff, 16)
       for payoff in (CALL, lv.PutPayoff(15.0), lv.ButterflyPayoff(14.0, 15.0, 16.0))},
    "PriceCurve.value_at-x": (lv.PriceCurve((1.0, 2.0), (0.0, 1.0)).value_at, 2),
    "SampledPayoff.__call__-x": (lv.SampledPayoff((1.0, 2.0), (0.0, 1.0)), 2),
}
POINTS = ("__call__-y", "value_at-x", "__call__-x")  # a point may also be a list
INPUT_KINDS = {  # (the input built from the good value, the shape of an ndarray result or None)
    "float": (float, None),
    "int": (int, None),
    "np.float64": (np.float64, None),
    "np.int64": (np.int64, None),
    "0-d": (lambda g: np.array(float(g)), ()),
    "1-d": (lambda g: np.array([g, g + 1.0]), (2,)),
    "2-d": (lambda g: np.array([[g, g + 1.0], [g + 1.0, g]]), (2, 2)),
    "empty": (lambda g: np.empty(0), (0,)),
    "list": (lambda g: [g, g + 1], (2,)),
}
RESULT_CELLS = [pytest.param(fn, INPUT_KINDS[kind][0](good), INPUT_KINDS[kind][1],
                             id=f"{key}-{kind}")
                for key, (fn, good) in RESULTS.items() for kind in INPUT_KINDS
                if kind != "list" or key.endswith(POINTS)]


@pytest.mark.parametrize("fn, given, shape", RESULT_CELLS)
def test_a_number_in_is_a_float_out_an_ndarray_in_an_ndarray_out(fn, given, shape):
    result = fn(given)
    for value in result if isinstance(result, tuple) else (result,):
        if shape is None:
            assert type(value) is float
        else:
            assert type(value) is np.ndarray and value.dtype == np.float64
            assert value.shape == shape


def test_every_spot_or_point_parameter_has_a_result_row():
    # a spot or point in PARAMETERS cannot skip the result rule; a jet returns a CoefficientJet
    rows = {key for key, (*_, kind, _) in PARAMETERS.items()
            if kind == "spot" and ".jet-" not in key or key.endswith(POINTS)}
    assert rows == set(RESULTS) and len(RESULT_CELLS) == 165
