"""Print sha256 hashes of the engine's stages and of price_call's ledgers.

    python tools/ledger_hash.py [CHECKOUT]

CHECKOUT is a source tree of this repository (default: the one holding
this script); its ``src`` is imported.  Two equal lines from two trees
mean that both compute the same floats, bit for bit, on this machine and
BLAS thread count.  Five things decide which bits each cache product
rounds to: the engine's chunk rule, which splits it into panels (and also
sets ``cache_bytes``), how BLAS accumulates each panel into the product,
here in place with beta = 1, each earlier panel at its chunk's full
stored width, the product's width and order: square s is formed as
S^(2^t - 1) [z; D], by 2^t - 1 b-wide products with square s - t, in
place of the last t squarings (t = min(s, 2)), the scaled matrix's form:
chunks, or compressed sparse columns once those take fewer bytes than
its block triangle, whose product scipy sums nonzero by nonzero (the
pricing generator converts at degree 4; the engine's dense instances
never do), and the evaluation scheme of the Pade polynomials: each new
diagonal block sums its powers as ``expm_baseline`` does, and the top
parts follow Higham's six products while the scaled matrix is chunked
and the power recurrence, on the same powers of the diagonal block,
once it is sparse.  A change to any of them can move every line.
``price`` rounds in ``price_call``'s row stream too, which forms no
square: it extends the 2^s + 1 rows u^T F^k by two products of the rows
with the polynomials' new top parts and a doubling over k, and in the
read-off, which sums each moment from raw moments as c_n^T m over its
Hermite coefficients c_n; a change to either moves ``price`` alone.

``engine`` hashes, in order, every stage of ``run_adaptive`` and of
``run_fixed(s=8)`` on a 12-block random instance (dim 340, one restart),
then every stage of ``run_adaptive`` on a 7-block sequence whose norms
grow by 4 per column (six restarts): per stage the exponential's bytes,
then repr((step, dim, block_size, s, restart, cache_bytes)) of its
report.

``price`` hashes five ``price_call`` ledgers at the configuration of the
price_adaptive benchmark workload: per row repr((n, l_n, f_n, term,
partial_price)), then repr((price, scaling, terminal_degree,
basis_scale, shift)) of the result.

``stages`` hashes the exponentials' bytes alone: those of the ``engine``
runs, in the same order, then every stage of ``run_fixed(s=6)`` over the
Jacobi generator at the price_adaptive workload's parameters, on the
monomial basis and times the horizon 0.25, to degree 40 (dim 861).  Its
scaled matrix converts to sparse columns at degree 4, so this pass runs
the stage path's power recurrence, which no other line covers.  A change
to what a report counts, such as ``cache_bytes``, moves ``engine`` and
leaves ``stages``.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys

# The Jacobi model of the price_adaptive benchmark workload.
_JACOBI = dict(kappa=0.5, theta=0.04, sigma=0.15, r=0.0, rho=-0.5, vmin=0.01, vmax=1.0)


def _engine_hashes() -> tuple[str, str]:
    """The ``engine`` and ``stages`` hashes."""
    import numpy as np

    from blockexpm.bench import RandomInstanceSpec, generate_instance
    from blockexpm.blocks import BlockColumn
    from blockexpm.generators import JacobiParams, generator_block_columns, jacobi_spec
    from blockexpm.incremental import run_adaptive, run_fixed

    inst = generate_instance(RandomInstanceSpec(seed=20250816, nblocks=12, bmin=20, bmax=40))
    rng = np.random.default_rng(404)
    growing, dim = [], 0
    for j, b in enumerate((2, 2, 3, 2, 3, 4, 2)):
        mag = 4.0**j
        top = mag * rng.standard_normal((dim, b))
        growing.append(BlockColumn(top, mag * rng.standard_normal((b, b))))
        dim += b
    engine, stages = hashlib.sha256(), hashlib.sha256()
    for runner in (run_adaptive(inst.block_columns()), run_fixed(inst.block_columns(), s=8),
                   run_adaptive(growing)):
        for f, rep in runner:
            engine.update(f.data.tobytes())
            stages.update(f.data.tobytes())
            engine.update(repr((rep.step, rep.dim, rep.block_size, rep.s, rep.restart,
                                rep.cache_bytes)).encode())
    generator = generator_block_columns(jacobi_spec(JacobiParams(**_JACOBI)), max_degree=40,
                                        scale=0.25)
    for f, _ in run_fixed(generator, s=6):
        stages.update(f.data.tobytes())
    return engine.hexdigest(), stages.hexdigest()


def _price_hash() -> str:
    from blockexpm.generators import JacobiParams
    from blockexpm.pricing import PricingConfig, price_call

    inputs = dict(
        params=JacobiParams(**_JACOBI),
        y0=0.0, v0=0.04, tau=0.25, logstrike=math.log(1.1), muw=0.0, sigmaw=0.5,
    )
    runs = (
        dict(eps=1e-3),
        dict(eps=0.0, n_max=30),
        dict(eps=1e-3, n_max=150),
        dict(eps=1e-3, n_max=400),
        dict(eps=0.0, n_max=25, y0=0.1, muw=0.3),
    )
    h = hashlib.sha256()
    for run in runs:
        res = price_call(PricingConfig(**{**inputs, **run}))
        for r in res.rows:
            h.update(repr((r.n, r.l_n, r.f_n, r.term, r.partial_price)).encode())
        h.update(repr((res.price, res.scaling, res.terminal_degree, res.basis_scale,
                       res.shift)).encode())
    return h.hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__, file=sys.stderr)
        return 2
    checkout = argv[0] if argv else os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(os.path.abspath(checkout), "src"))
    engine, stages = _engine_hashes()
    print("engine", engine)
    print("price", _price_hash())
    print("stages", stages)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
