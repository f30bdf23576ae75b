"""Command-line interface.

    diagsemi order <family> <n>
    diagsemi census <family> <n> [--raw|--up-to-conjugacy] [--stats]
                    [--jobs K] [--out DIR]
    diagsemi green <family> <n> [--json FILE]
    diagsemi fern <n> <dclass-index> --out FILE

Families: PB B PT T I S P IS Br TL (see README for the notation map).

Every command compares the closed-form size of its work with a bound
before it builds generators or enumerates anything: ``census`` the order
with the census bound of 128 elements, ``order`` and ``green`` with the
enumeration bound of 250,000 elements, and ``fern`` its bitmap and its
half-diagram orbit with the bounds of ``halves.tl_fern``, which never
enumerates TL_n nor builds a diagram object.  ``order`` then skips its
enumeration; ``census``, ``green`` and ``fern`` exit 2, as they do when
an output file cannot be written.

Exit status is 0 only when every verification the command performs
reports MATCH.
"""

import argparse
import functools
import sys
from pathlib import Path

from . import catalog, census as census_mod, engine, halves
from .elements import FAMILY_CODES, FAMILY_NAMES
from .formulas import decimal_string, family_order


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _config_line(args, **extra):
    # jobs is deliberately left out: worker count never changes results,
    # and census outputs must be byte-identical across --jobs values
    fields = {"command": args.command}
    for key in ("family", "n", "dclass"):
        if hasattr(args, key):
            fields[key] = getattr(args, key)
    fields.update(extra)
    body = " ".join(f"{k}={v}" for k, v in fields.items())
    return f"diagsemi {body}"


def _enumerate(family, n):
    """family_n, or FeasibilityError before any work when its closed-form
    order is over the enumeration bound.  The catalog checks that every
    generator is in the family, so a correct run never passes the closed
    form and a product fault that does raises LimitExceeded at once."""
    order = family_order(family, n)
    census_mod.check_bound(order, census_mod.ENUMERATION_MAX_ELEMENTS, "enumeration",
                           what=f"{family}_{n}")
    gens = catalog.standard_generators(family, n)
    return engine.enumerate_family(gens, limit=order)


def cmd_order(args):
    expected = family_order(args.family, args.n)
    print(f"{args.family}_{args.n} ({FAMILY_NAMES[args.family]})")
    print(f"closed form: {decimal_string(expected)}")
    try:
        S = _enumerate(args.family, args.n)
    except census_mod.FeasibilityError:
        print("enumeration skipped (infeasible: order exceeds "
              f"{census_mod.ENUMERATION_MAX_ELEMENTS})")
        return 0
    except catalog.UnsupportedFamilyDegree:
        print("enumeration skipped (no catalog generating set for this degree)")
        return 0
    verdict = "MATCH" if len(S) == expected else "MISMATCH"
    print(f"enumerated:  {len(S)}  {verdict}")
    return 0 if verdict == "MATCH" else 1


def cmd_census(args):
    if args.out is not None and not args.stats:
        raise ValueError("--out names the output directory of --stats")
    if args.family == "S" and args.stats:
        raise ValueError("--stats is not available for the S row, "
                         "which counts subgroup classes only")
    if args.raw and (args.stats or args.jobs > 1):
        raise ValueError("--stats and --jobs over 1 are not available with --raw, "
                         "which counts the subsemigroups only, in one process")
    census_mod.check_census_bound(family_order(args.family, args.n),
                                  what=f"{args.family}_{args.n}")
    S = _enumerate(args.family, args.n)
    # backend=python is a fixed field of the census header: existing
    # output files carry it and their digests pin those bytes
    config = _config_line(args, backend="python", ambient=len(S))

    if args.family == "S":
        total = census_mod.subgroup_census(S, jobs=args.jobs)
        print(f"subgroup classes of S_{args.n} up to conjugacy: {total}")
        if args.raw:
            print("(the symmetric-group row always counts conjugacy classes "
                  "of nonempty subgroups)")
        return 0

    if args.raw:
        total = len(census_mod.all_subsemigroup_masks(S))
        print(f"subsemigroups of {args.family}_{args.n}: {total}")
        return 0

    classes, raw_total = census_mod.census_up_to_conjugacy(S, jobs=args.jobs)
    print(f"subsemigroups of {args.family}_{args.n} up to conjugacy: {len(classes)}")
    print(f"raw subsemigroups: {raw_total}")
    if args.stats:
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        stem = f"census_{args.family}{args.n}"
        census_mod.write_records_jsonl(out / f"{stem}.jsonl", classes, config)
        census_mod.write_histogram_csv(
            out / f"{stem}_sizes.csv", census_mod.size_histogram(classes), config)
        census_mod.write_histogram_csv(
            out / f"{stem}_sizes_nontrivial_perm.csv",
            census_mod.size_histogram(classes, only_nontrivial_perm=True), config)
        for metric in ("d-classes", "idempotents"):
            name = metric.replace("-", "")
            census_mod.write_joint_csv(
                out / f"{stem}_size_vs_{name}.csv",
                census_mod.joint_histogram(classes, metric), metric, config)
        print(f"stats written to {out}/{stem}_*.csv and {stem}.jsonl")
    return 0


def cmd_green(args):
    S = _enumerate(args.family, args.n)
    green = engine.green_structure(S)
    n_d = green.n_d_classes()
    chain = all((green.d_order[i + 1], green.d_order[i]) in green.d_leq
                for i in range(n_d - 1))
    print(f"{args.family}_{args.n}: {len(S)} elements, "
          f"{n_d} D-class{'es' if n_d != 1 else ''}"
          f"{' (linearly ordered)' if chain and n_d > 1 else ''}")
    for pos, (size, rows, cols, idem) in enumerate(green.summary):
        print(f"  D[{pos}]: {size} elements, eggbox {rows}x{cols}, "
              f"{idem} idempotent cells")
    if args.json:
        engine.write_green_json(args.json, green, _config_line(args))
        print(f"green structure written to {args.json}")
    return 0


def cmd_fern(args):
    rows, cols, mask = halves.tl_fern(args.n, args.dclass)
    engine.write_pgm(args.out, mask, _config_line(args))
    brute_mask = halves.idempotent_cells(rows, cols)
    verdict = "MATCH" if (brute_mask == mask).all() else "MISMATCH"
    print(f"TL_{args.n} D[{args.dclass}]: {len(rows)}x{len(cols)} bitmap, "
          f"{int(mask.sum())} idempotent cells "
          f"(brute-force {int(brute_mask.sum())}, {verdict})")
    print(f"wrote {args.out}")
    return 0 if verdict == "MATCH" else 1


@functools.cache
def build_parser():
    """The parser of the process, built on the first call: building it
    costs far more than parsing with it, and parsing leaves it as it is."""
    parser = argparse.ArgumentParser(
        prog="diagsemi",
        description="diagram semigroups: orders, censuses, Green's structure")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("order", help="closed-form order, checked by enumeration")
    p.add_argument("family", choices=FAMILY_CODES)
    p.add_argument("n", type=int)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("census", help="subsemigroup census")
    p.add_argument("family", choices=FAMILY_CODES)
    p.add_argument("n", type=int)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--raw", action="store_true",
                      help="count all subsemigroups, no conjugacy folding")
    mode.add_argument("--up-to-conjugacy", dest="conj", action="store_true",
                      help="fold by the ambient symmetry group (default)")
    p.add_argument("--stats", action="store_true",
                   help="write histogram CSVs and a JSONL record stream")
    p.add_argument("--jobs", type=_positive_int, default=1,
                   help="processes, this one included (K - 1 forked workers), "
                        "at most the CPUs this process may run on")
    p.add_argument("--out", default=None, help="output directory for --stats")
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("green", help="Green's structure summary")
    p.add_argument("family", choices=FAMILY_CODES)
    p.add_argument("n", type=int)
    p.add_argument("--json", default=None, help="write the structure as JSON")
    p.set_defaults(func=cmd_green)

    p = sub.add_parser("fern", help="idempotent bitmap of a TL_n D-class")
    p.add_argument("n", type=int)
    p.add_argument("dclass", type=int, help="D-class index, descending rank")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fern)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (catalog.UnsupportedFamilyDegree, census_mod.FeasibilityError,
            engine.LimitExceeded, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
