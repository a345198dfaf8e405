"""Command line front end: generate, check, find, verify, equiv, plot.

Exit codes: 0 for pass/found, 1 for fail/not-found, 2 for usage or input
errors."""

from __future__ import annotations

import argparse
import json
import sys

from .consistency import ConsistencyConfig, NoLift, check_dependency_consistency
from .consistency import lift_dependence, trivial_witness
from .geometry import PoleError, embed_family, hyperplane_from_sphere_point
from .harness import (
    EquivConfig,
    GenSpec,
    Instance,
    dumps_canonical,
    gen_instance,
    read_instance,
    run_equivalence,
    witness_from_transversal,
    write_instance,
    write_report,
    _hyperplane_from_json,
    _hyperplane_json,
)
from .plotting import plot_instance
from .transversal import BORSUK_VERIFY_TOL, ZERO_TOL
from .transversal import (
    NotFound,
    TransversalConfig,
    borsuk_map,
    borsuk_zero_dependence,
    find_borsuk_zero,
    find_complex_transversal,
    real_hyperplane_transversal,
    verify_transversal,
)


# What reading a malformed or unreadable input can raise; each is a usage
# error (exit 2).  OverflowError: a number beyond float range; RecursionError:
# JSON nested deeper than the decoder's recursion limit.
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError, OverflowError, RecursionError)


def _load_instance(path: str) -> Instance:
    try:
        return read_instance(path)
    except _READ_ERRORS as exc:
        raise SystemExit(f"error: cannot read instance {path}: {exc}")


def _load_transversal(path: str, ambient: str):
    try:
        with open(path) as fh:
            return _hyperplane_from_json(json.load(fh), ambient)
    except _READ_ERRORS as exc:
        raise SystemExit(f"error: cannot read transversal {path}: {exc}")


def _cmd_gen(args) -> int:
    spec = GenSpec(
        d=args.d,
        n_sets=args.sets,
        vertices_per_set=args.verts,
        planted=args.planted,
        seed=args.seed,
        ambient=args.ambient,
    )
    instance = gen_instance(spec)
    write_instance(instance, args.output)
    print(f"wrote {args.output}")
    return 0


def _witness(instance: Instance, k=None):
    """(witness, source) of a command: the stored witness, else the planted
    transversal's frame (target dimension d-1), else the trivial witness
    (target dimension 0), the first of them with target dimension k when k
    is given; (None, None) if none has it."""
    if instance.witness is not None and k in (None, instance.witness.k):
        return instance.witness, "stored witness"
    if instance.planted is not None:
        planted = witness_from_transversal(instance, instance.planted)
        return planted, "witness from planted transversal"
    if k in (None, 0):
        return trivial_witness(instance.family), "trivial witness"
    return None, None


def _cmd_check(args) -> int:
    instance = _load_instance(args.instance)
    family = instance.family
    if family.ambient != "complex":
        print("error: consistency checking expects a complex instance", file=sys.stderr)
        return 2
    witness, source = _witness(instance)
    config = ConsistencyConfig(samples=args.samples, exact=args.exact)
    verdict = check_dependency_consistency(family, witness, config)
    print(f"using {source} (target dimension {witness.k})")
    reached = "" if verdict.passed else " up to the failing subfamily size"
    print(
        f"consistency: {verdict.status}"
        f" ({verdict.n_dependences} dependences, {verdict.n_circuits} circuits,"
        f" {verdict.n_sampled} sampled{reached}, max lift residual"
        f" {verdict.max_lift_residual:.3e})"
    )
    if verdict.violation is not None:
        dep = verdict.violation.dependence
        print(f"unliftable dependence on {list(dep.labels)} (exact={verdict.violation.exact})")
    return 0 if verdict.passed else 1


def _cmd_find(args) -> int:
    instance = _load_instance(args.instance)
    family = instance.family
    config = TransversalConfig(starts=args.starts, zero_tol=args.zero_tol, seed=args.seed)
    if family.ambient == "real" and args.method == "borsuk":
        print("error: the borsuk method needs a complex instance", file=sys.stderr)
        return 2
    if args.method == "direction":
        if family.ambient == "real":
            result = real_hyperplane_transversal(family, config)
        else:
            result = find_complex_transversal(family, config)
        if isinstance(result, NotFound):
            print(f"not found: {result.reason} (best margin {result.best:.3e})")
            return 1
        T = result
        rep = verify_transversal(T, family)
    else:
        witness, _ = _witness(instance, instance.d - 1)
        if witness is None:
            print(
                "error: borsuk method needs a witness with target dimension d-1"
                " or a planted transversal",
                file=sys.stderr,
            )
            return 2
        emb = embed_family(family)
        x = find_borsuk_zero(emb, witness, config)
        if isinstance(x, NotFound):
            print(f"not found: {x.reason} (best residual {x.best:.3e})")
            return 1
        try:
            T = hyperplane_from_sphere_point(x)
        except PoleError:
            print("not found: accepted zero sits at the pole")
            return 1
        residual = borsuk_map(x, emb, witness).norm
        print(f"zero residual {residual:.3e}")
        rep = verify_transversal(T, family, tol=BORSUK_VERIFY_TOL)
        if not rep.passed:
            # a zero whose hyperplane misses a set convicts the witness only
            # when its dependence has no nonnegative lift, certified exactly
            dep = borsuk_zero_dependence(x, emb, witness)
            res = None if dep is None else lift_dependence(family, dep)
            if isinstance(res, NoLift) and res.exact:
                why = f"witness convicted by the dependence on {list(dep.labels)}"
            elif dep is None:
                why = "the zero misses a set and convicts nothing: it carries no dependence"
            else:
                why = (f"the zero misses a set and convicts nothing:"
                       f" its dependence on {list(dep.labels)} lifts")
            print(
                f"not found: zero does not yield a transversal"
                f" (verify max {rep.max_distance:.3e}); {why}"
            )
            return 1
    print(dumps_canonical(_hyperplane_json(T)), end="")
    print(f"verify max distance {rep.max_distance:.3e}")
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(dumps_canonical(_hyperplane_json(T)))
    return 0


def _cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    T = _load_transversal(args.transversal, instance.ambient)
    rep = verify_transversal(T, instance.family, tol=args.tol)
    for label, dist in rep.distances:
        print(f"{label}: {dist:.3e}")
    print(f"max distance {rep.max_distance:.3e} ({'pass' if rep.passed else 'fail'})")
    return 0 if rep.passed else 1


def _cmd_equiv(args) -> int:
    config = EquivConfig(trials=args.trials, d=args.d, seed=args.seed)
    report = run_equivalence(config)
    write_report(report, args.output)
    agg = report.aggregates
    print(
        f"wrote {args.output}: {agg['trials']} trials,"
        f" {agg['consistency_pass']} consistency passes,"
        f" {agg['assertion_failures']} assertion failures,"
        f" {agg['false_fails']} false fails"
        f" ({report.wall_time:.1f}s)"
    )
    return 0 if agg["assertion_failures"] == 0 and agg["false_fails"] == 0 else 1


def _cmd_plot(args) -> int:
    instance = _load_instance(args.instance)
    T = instance.planted
    if args.transversal:
        T = _load_transversal(args.transversal, instance.ambient)
    try:
        svg = plot_instance(instance, T)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    with open(args.output, "w") as fh:
        fh.write(svg + "\n")
    print(f"wrote {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvlab",
        description="Hyperplane transversals of convex polytope families:"
        " generation, consistency checking, search, and verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a random instance")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--sets", type=int, required=True)
    p.add_argument("--verts", type=int, default=GenSpec.vertices_per_set)
    p.add_argument("--planted", action="store_true")
    p.add_argument("--seed", type=int, default=GenSpec.seed)
    p.add_argument("--ambient", choices=("real", "complex"), default="complex")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("check", help="dependency-consistency check")
    p.add_argument("instance")
    p.add_argument("--samples", type=int, default=ConsistencyConfig.samples)
    p.add_argument("--exact", action="store_true")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("find", help="search for a transversal")
    p.add_argument("instance")
    p.add_argument("--method", choices=("direction", "borsuk"), default="direction")
    p.add_argument("--starts", type=int, default=TransversalConfig.starts)
    p.add_argument("--zero-tol", type=float, default=TransversalConfig.zero_tol)
    p.add_argument("--seed", type=int, default=TransversalConfig.seed)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_find)

    p = sub.add_parser("verify", help="verify a transversal against an instance")
    p.add_argument("instance")
    p.add_argument("--transversal", required=True)
    p.add_argument("--tol", type=float, default=ZERO_TOL)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("equiv", help="run the equivalence experiment")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--d", type=int, default=EquivConfig.d)
    p.add_argument("--seed", type=int, default=EquivConfig.seed)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("plot", help="emit an SVG diagnostic")
    p.add_argument("instance")
    p.add_argument("--transversal")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit as exc:
        if isinstance(exc.code, str):
            print(exc.code, file=sys.stderr)
            return 2
        raise
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
