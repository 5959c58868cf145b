"""Fit outputs pinned bit for bit.

``float.hex`` of each fit's ``theta_hat`` and criterion, with its iterations
and converged flag, for every kind on every family at n = 100 and n = 2000
(10% Cauchy outliers on the normal kinds, x50 outliers on Pareto), a
zero-MAD sample that only the fallback fits, a 3-row ``_fit_rows`` batch
per family and one numeric influence curve.  A change meant to keep the
numbers shows here any bit it moves; a change meant to move them updates
``PINNED`` and says why.

numpy takes float64 ``exp`` and ``log`` from its AVX-512 (``X86_V4``)
kernels where the CPU has them and from a scalar path elsewhere, and the
two can differ in the last bit, which a fit carries a few ulps on (and a
non-converged fallback fit further).  ``PINNED`` holds the AVX-512 values
and ``WITHOUT_AVX512`` the cases that differ without it; both were
recorded on the same tree, the latter with ``NPY_DISABLE_CPU_FEATURES=X86_V4``
(x86-64, numpy 2.4.6, glibc 2.36; disabling ``X86_V3`` as well gives the
same bits).
"""

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from mindiv import FAMILIES, NORMAL, NORMAL_SCALE, PARETO, EstimatorSpec, empirical, estimate, influence_curve
from mindiv.estimators import _fit_rows

ALPHA = 0.5


def contaminated(family, shape, seed):
    """Samples with 10% outliers: 20 x Cauchy on the normal kinds, x50 on Pareto."""
    rng = np.random.default_rng(seed)
    rows, n = shape
    if family is PARETO:
        xs = PARETO.sample([2.0], rows * n, rng).reshape(shape)
        xs[:, : n // 10] *= 50.0
    else:
        xs = rng.standard_normal(shape) + 0.5
        xs[:, : n // 10] = 20.0 * rng.standard_cauchy((rows, n // 10))
    return xs


def hexes(values):
    return tuple(float(v).hex() for v in np.ravel(values))


def single(family, spec, xs):
    r = estimate(family, spec, empirical(xs))
    return hexes(r.theta_hat), float(r.criterion_value).hex(), r.iterations, r.converged


def specs(family, xs):
    """The kinds at ``ALPHA``, subdivergence from the MLE and from 1.1 x the MLE."""
    mle = family.mle_parameter(xs, np.full(xs.shape, 1.0 / xs.size))
    return {
        "mle": EstimatorSpec("mle"),
        "superdivergence": EstimatorSpec("superdivergence", ALPHA),
        "power-pseudo": EstimatorSpec("power-pseudo", ALPHA),
        "renyi": EstimatorSpec("renyi", ALPHA),
        "subdivergence-mle": EstimatorSpec("subdivergence", ALPHA, tuple(mle)),
        "subdivergence-away": EstimatorSpec("subdivergence", ALPHA, tuple(1.1 * mle)),
    }


def batch(family, kind):
    xs = contaminated(family, (3, 60), seed=7)
    theta, criteria, iterations, converged, errors = _fit_rows(
        family, EstimatorSpec(kind, ALPHA), xs, np.full(xs.shape, 1.0 / 60)
    )
    return hexes(theta), hexes(criteria), iterations.tolist(), converged.tolist(), sorted(errors)


def cases():
    out = {}
    for name, family in FAMILIES.items():
        for n in (100, 2000):
            xs = contaminated(family, (1, n), seed=n)[0]
            for label, spec in specs(family, xs).items():
                out[f"{name}-n{n}-{label}"] = lambda f=family, s=spec, x=xs: single(f, s, x)
        for kind in ("power-pseudo", "renyi"):
            out[f"{name}-batch-{kind}"] = lambda f=family, k=kind: batch(f, k)
    zero_mad = np.concatenate([np.zeros(12), np.random.default_rng(3).standard_normal(8)])
    for kind in ("power-pseudo", "renyi"):
        out[f"normal-zero-mad-{kind}"] = lambda k=kind: single(NORMAL, EstimatorSpec(k, ALPHA), zero_mad)
    out["normal-scale-influence-numeric"] = lambda: hexes(
        influence_curve(NORMAL_SCALE, EstimatorSpec("renyi", ALPHA), [1.0], np.linspace(-6.0, 6.0, 5), numeric=True).values
    )
    return out


CASES = cases()

PINNED = {'normal-batch-power-pseudo': (('0x1.546d21f01bfa4p-2',
                                '0x1.e3f9d9b07ad92p-1',
                                '0x1.d5c1be7510662p-2',
                                '0x1.beda4e1dacf55p-1',
                                '0x1.e6a764b1c82e9p-3',
                                '0x1.e8d606a2d5942p-1'),
                               ('-0x1.38ffde14447e4p-1', '-0x1.43e74e6108e50p-1', '-0x1.4219a8976d60cp-1'),
                               [4, 4, 3],
                               [True, True, True],
                               []),
 'normal-batch-renyi': (('0x1.5633591b00f68p-2',
                         '0x1.d154cdc66f6a1p-1',
                         '0x1.d6f7c5bb530fep-2',
                         '0x1.ac4bed78f3ce9p-1',
                         '0x1.dfc2735153b4ep-3',
                         '0x1.dae809d50a5a7p-1'),
                        ('0x1.08c76ec189c50p-1', '0x1.f9f1a1a407978p-2', '0x1.ff256625be9d4p-2'),
                        [4, 4, 4],
                        [True, True, True],
                        []),
 'normal-loc-batch-power-pseudo': (('0x1.5219d2afba361p-2', '0x1.d24a3120a1696p-2', '0x1.f0d19fd9e7274p-3'),
                                   ('-0x1.38a28a8278804p-1', '-0x1.41d434c618474p-1', '-0x1.41d6aed7a5f4ap-1'),
                                   [3, 3, 3],
                                   [True, True, True],
                                   []),
 'normal-loc-batch-renyi': (('0x1.5219d2afba361p-2', '0x1.d24a3120a1696p-2', '0x1.f0d19fd9e7274p-3'),
                            ('0x1.09c2300784f36p-1', '0x1.00370b1d8a61ap-1', '0x1.00347f0b42006p-1'),
                            [3, 3, 3],
                            [True, True, True],
                            []),
 'normal-loc-n100-mle': (('0x1.6e4bc06438f57p+5',), '-0x1.88e432198808dp+16', 0, True),
 'normal-loc-n100-power-pseudo': (('0x1.d063e6975425ep-2',), '-0x1.2b68b3bc6a308p-1', 3, True),
 'normal-loc-n100-renyi': (('0x1.d063e6975425ep-2',), '0x1.286f405c77c0fp-1', 3, True),
 'normal-loc-n100-subdivergence-away': (('0x1.1a68016d8a6c6p+12',), 'inf', 111, False),
 'normal-loc-n100-subdivergence-mle': (('0x1.6e4bc06438f57p+5',), '0x1.0000000000000p+2', 0, True),
 'normal-loc-n100-superdivergence': (('0x1.6e4bc06438f57p+5',), '0x1.0000000000000p+2', 0, True),
 'normal-loc-n2000-mle': (('0x1.360d227310b4ap+4',), '-0x1.b5a38bdd8c4f0p+17', 0, True),
 'normal-loc-n2000-power-pseudo': (('0x1.f5b63f69e8e22p-2',), '-0x1.2f628afb2602cp-1', 3, True),
 'normal-loc-n2000-renyi': (('0x1.f5b63f69e8e22p-2',), '0x1.2ae9def218a01p-1', 3, True),
 'normal-loc-n2000-subdivergence-away': (('0x1.c5bf362b22bcap+14',), 'inf', 115, False),
 'normal-loc-n2000-subdivergence-mle': (('0x1.360d227310b4ap+4',), '0x1.0000000000000p+2', 0, True),
 'normal-loc-n2000-superdivergence': (('0x1.360d227310b4ap+4',), '0x1.0000000000000p+2', 0, True),
 'normal-n100-mle': (('0x1.6e4bc06438f57p+5', '0x1.c081cc8a55ea5p+8'), '-0x1.e1975a7d59196p+2', 0, True),
 'normal-n100-power-pseudo': (('0x1.d478596daa23cp-2', '0x1.13b7aa13f0e8ap+0'), '-0x1.2c0e943899407p-1', 4, True),
 'normal-n100-renyi': (('0x1.d2c2697c6ceb4p-2', '0x1.0b07047d23d96p+0'), '0x1.288d31835c577p-1', 4, True),
 'normal-n100-subdivergence-away': (('0x1.dc9c5926a17c3p+5', '0x1.ea101d34f1cc6p+8'), '0x1.ffef5481980b9p+1', 21, True),
 'normal-n100-subdivergence-mle': (('0x1.6e4bc06438f57p+5', '0x1.c081cc8a55ea5p+8'), '0x1.0000000000000p+2', 0, True),
 'normal-n100-superdivergence': (('0x1.6e4bc06438f57p+5', '0x1.c081cc8a55ea5p+8'), '0x1.0000000000000p+2', 0, True),
 'normal-n2000-mle': (('0x1.360d227310b4ap+4', '0x1.4eb767cbf5d75p+9'), '-0x1.fb394095d312ap+2', 0, True),
 'normal-n2000-power-pseudo': (('0x1.f765a09f45c21p-2', '0x1.0eb51ecfb5df2p+0'), '-0x1.2fc0e00477664p-1', 4, True),
 'normal-n2000-renyi': (('0x1.f6771e38d0712p-2', '0x1.06614cf5c85d5p+0'), '0x1.2af41cae7c11ep-1', 4, True),
 'normal-n2000-subdivergence-away': (('0x1.7dd75b69639cbp+4', '0x1.700f580816025p+9'),
                                     '0x1.ffff226ff4f68p+1',
                                     16,
                                     True),
 'normal-n2000-subdivergence-mle': (('0x1.360d227310b4ap+4', '0x1.4eb767cbf5d75p+9'), '0x1.0000000000000p+2', 0, True),
 'normal-n2000-superdivergence': (('0x1.360d227310b4ap+4', '0x1.4eb767cbf5d75p+9'), '0x1.0000000000000p+2', 0, True),
 'normal-scale-batch-power-pseudo': (('0x1.049b3bfdd01b3p+0', '0x1.0410ab4afa82bp+0', '0x1.efac124b9867dp-1'),
                                     ('-0x1.2f604a72d5c2cp-1', '-0x1.2f3f64ed995d2p-1', '-0x1.3cd72e119ffecp-1'),
                                     [3, 4, 4],
                                     [True, True, True],
                                     []),
 'normal-scale-batch-renyi': (('0x1.f715cee00e14fp-1', '0x1.f5ba04904b64ep-1', '0x1.df13eab2531e8p-1'),
                              ('0x1.138ec69690cd6p-1', '0x1.13ac9ace90528p-1', '0x1.0509a2c53e814p-1'),
                              [4, 4, 4],
                              [True, True, True],
                              []),
 'normal-scale-influence-numeric': ('0x1.89be087aae800p-8',
                                    '0x1.35ce7497e9640p+0',
                                    '-0x1.d64d47ee6fe68p-1',
                                    '0x1.35ce7497e9640p+0',
                                    '0x1.89be087aae800p-8'),
 'normal-scale-n100-mle': (('0x1.c2d68e6773b97p+8',), '-0x1.e1ec49a0ef763p+2', 0, True),
 'normal-scale-n100-power-pseudo': (('0x1.2c1a12de6e4aep+0',), '-0x1.1e98a5c96b9fap-1', 3, True),
 'normal-scale-n100-renyi': (('0x1.220594449cda3p+0',), '0x1.1fa65a2d0fa79p-1', 4, True),
 'normal-scale-n100-subdivergence-away': (('0x1.edab8a8297474p+8',), '0x1.fff29cf5873eep+1', 13, True),
 'normal-scale-n100-subdivergence-mle': (('0x1.c2d68e6773b97p+8',), '0x1.0000000000000p+2', 0, True),
 'normal-scale-n100-superdivergence': (('0x1.c2d68e6773b97p+8',), '0x1.0000000000000p+2', 0, True),
 'normal-scale-n2000-mle': (('0x1.4edb4c6468c51p+9',), '-0x1.fb401d2344461p+2', 0, True),
 'normal-scale-n2000-power-pseudo': (('0x1.2d30d8a93b551p+0',), '-0x1.1fdaf28202fdap-1', 3, True),
 'normal-scale-n2000-renyi': (('0x1.23b298b3b2cdfp+0',), '0x1.206f1b09b2a36p-1', 4, True),
 'normal-scale-n2000-subdivergence-away': (('0x1.703f2b738f6a5p+9',), '0x1.ffff3ccdee32ap+1', 10, True),
 'normal-scale-n2000-subdivergence-mle': (('0x1.4edb4c6468c51p+9',), '0x1.0000000000000p+2', 0, True),
 'normal-scale-n2000-superdivergence': (('0x1.4edb4c6468c51p+9',), '0x1.0000000000000p+2', 0, True),
 'normal-zero-mad-power-pseudo': (('-0x1.2d8b747fb567cp+2', '0x1.148ba46b83ab0p+3'),
                                  '-0x1.222079020cd65p-2',
                                  232,
                                  False),
 'normal-zero-mad-renyi': (('-0x1.084b2e8481ac4p+2', '0x1.148ba46b83ab0p+3'), '0x1.742c1eed736aap-2', 236, False),
 'pareto-batch-power-pseudo': (('0x1.055a2d60a3960p+1', '0x1.ad78a821c5934p+0', '0x1.883b0eadedf94p+0'),
                               ('-0x1.f27582849c1d7p-1', '-0x1.c1faa548b5ceep-1', '-0x1.af2628196542ep-1'),
                               [4, 3, 3],
                               [True, True, True],
                               []),
 'pareto-batch-renyi': (('0x1.2209ca6fa338ep+1', '0x1.d742f9f4ea49ap+0', '0x1.a549f523d736dp+0'),
                        ('0x1.a88c4b2fa39b7p-3', '0x1.1afe1538aa165p-2', '0x1.38c07c604a9bfp-2'),
                        [3, 3, 3],
                        [True, True, True],
                        []),
 'pareto-n100-mle': (('0x1.069058c8060d5p+0',), '-0x1.f31e7e8c189ffp+0', 0, True),
 'pareto-n100-power-pseudo': (('0x1.7d13deb98f259p+0',), '-0x1.a9d077e271ce4p-1', 3, True),
 'pareto-n100-renyi': (('0x1.94e205f2c9cbbp+0',), '0x1.760e1757645d7p-1', 3, True),
 'pareto-n100-subdivergence-away': (('0x1.0ea69af82387cp+0',), '0x1.ff99c98a5daffp+1', 10, True),
 'pareto-n100-subdivergence-mle': (('0x1.069058c8060d5p+0',), '0x1.0000000000000p+2', 0, True),
 'pareto-n100-superdivergence': (('0x1.069058c8060d5p+0',), '0x1.0000000000000p+2', 0, True),
 'pareto-n2000-mle': (('0x1.2499595cd11bfp+0',), '-0x1.bdc54c93eda9cp+0', 0, True),
 'pareto-n2000-power-pseudo': (('0x1.d56749c7a2c5ap+0',), '-0x1.db46c4f1222f6p-1', 4, True),
 'pareto-n2000-renyi': (('0x1.004703597cc60p+1',), '0x1.92d22d3520efep-1', 3, True),
 'pareto-n2000-subdivergence-away': (('0x1.2ecf429984f96p+0',), '0x1.ff9fef4eaa26ap+1', 10, True),
 'pareto-n2000-subdivergence-mle': (('0x1.2499595cd11bfp+0',), '0x1.0000000000000p+2', 0, True),
 'pareto-n2000-superdivergence': (('0x1.2499595cd11bfp+0',), '0x1.0000000000000p+2', 0, True)}

WITHOUT_AVX512 = {'normal-batch-renyi': (('0x1.5633591b00f68p-2',
                                          '0x1.d154cdc66f6a1p-1',
                                          '0x1.d6f7c5bb530fep-2',
                                          '0x1.ac4bed78f3ce9p-1',
                                          '0x1.dfc2735153b4dp-3',
                                          '0x1.dae809d50a5a6p-1'),
                                         ('0x1.08c76ec189c50p-1', '0x1.f9f1a1a407978p-2', '0x1.ff256625be9d4p-2'),
                                         [4, 4, 4],
                                         [True, True, True],
                                         []),
                  'normal-loc-batch-power-pseudo': (('0x1.5219d2afba361p-2', '0x1.d24a3120a1695p-2', '0x1.f0d19fd9e7274p-3'),
                                                    ('-0x1.38a28a8278804p-1', '-0x1.41d434c618476p-1', '-0x1.41d6aed7a5f4ap-1'),
                                                    [3, 3, 3],
                                                    [True, True, True],
                                                    []),
                  'normal-loc-batch-renyi': (('0x1.5219d2afba361p-2', '0x1.d24a3120a1695p-2', '0x1.f0d19fd9e7274p-3'),
                                             ('0x1.09c2300784f36p-1', '0x1.00370b1d8a61ap-1', '0x1.00347f0b42006p-1'),
                                             [3, 3, 3],
                                             [True, True, True],
                                             []),
                  'normal-n100-subdivergence-away': (('0x1.dc9c5926a17bfp+5', '0x1.ea101d34f1cc8p+8'), '0x1.ffef5481980bcp+1', 21, True),
                  'normal-n2000-subdivergence-away': (('0x1.7dd75b69639cap+4', '0x1.700f580816025p+9'),
                                                      '0x1.ffff226ff4f68p+1',
                                                      16,
                                                      True),
                  'normal-scale-batch-renyi': (('0x1.f715cee00e14fp-1', '0x1.f5ba04904b64ep-1', '0x1.df13eab2531e6p-1'),
                                               ('0x1.138ec69690cd6p-1', '0x1.13ac9ace90528p-1', '0x1.0509a2c53e815p-1'),
                                               [4, 4, 4],
                                               [True, True, True],
                                               []),
                  'normal-zero-mad-renyi': (('-0x1.084b2e86c84e4p+2', '0x1.148ba46b83ab0p+3'), '0x1.742c1eed1a39ap-2', 236, False),
                  'pareto-batch-power-pseudo': (('0x1.055a2d60a3960p+1', '0x1.ad78a821c5934p+0', '0x1.883b0eadedf95p+0'),
                                                ('-0x1.f27582849c1d7p-1', '-0x1.c1faa548b5ceep-1', '-0x1.af2628196542ep-1'),
                                                [4, 3, 3],
                                                [True, True, True],
                                                []),
                  'pareto-n100-subdivergence-away': (('0x1.0ea69af82387dp+0',), '0x1.ff99c98a5daffp+1', 10, True),
                  'pareto-n2000-renyi': (('0x1.004703597cc5ep+1',), '0x1.92d22d3520effp-1', 3, True),
                  'pareto-n2000-subdivergence-away': (('0x1.2ecf429984f98p+0',), '0x1.ff9fef4eaa26ap+1', 10, True)}


@pytest.mark.parametrize("key", sorted(CASES))
def test_outputs_pinned_bit_for_bit(key):
    pinned = PINNED if __cpu_features__.get("X86_V4") else {**PINNED, **WITHOUT_AVX512}
    assert CASES[key]() == pinned[key]
