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
enumeration bound of 250,000 elements.  ``fern`` never enumerates TL_n:
it bounds its bitmap by FERN_MAX_CELLS (2^24 cells) and its one
half-diagram orbit, in point-products (the entries of the orbit's action
arrays: halves times hooks times the degree n), by
FERN_MAX_POINT_PRODUCTS (2^22).  ``order`` then skips its enumeration;
``census``, ``green`` and ``fern`` exit 2, as they do when an output
file cannot be written.

Exit status is 0 only when every verification the command performs
reports MATCH.
"""

import argparse
import functools
import sys
from pathlib import Path

import numpy as np

from . import catalog, census as census_mod, engine, kernels
from .elements import FAMILY_CODES, FAMILY_NAMES
from .formulas import ballot, binomial, decimal_string, family_order

# the largest fern bitmap, in cells: 16 MiB of mask
FERN_MAX_CELLS = 1 << 24
# the largest half-diagram orbit, in entries of its action arrays (halves
# times hooks times the degree n): admits fern 16 7 (2,745,600) and fern
# 200 0 (39,800), a few seconds at most
FERN_MAX_POINT_PRODUCTS = 1 << 22
# peak bytes of the check's temporaries per cell and degree, as measured
# on TL_10 and TL_14 (17-23)
_CHECK_CELL_BYTES = 24


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
    if args.raw and args.stats:
        raise ValueError("--stats is not available with --raw, "
                         "which counts the subsemigroups only")
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

    records, raw_total = census_mod.census_up_to_conjugacy(S, jobs=args.jobs)
    print(f"subsemigroups of {args.family}_{args.n} up to conjugacy: {len(records)}")
    print(f"raw subsemigroups: {raw_total}")
    if args.stats:
        out = Path(args.out or ".")
        out.mkdir(parents=True, exist_ok=True)
        stem = f"census_{args.family}{args.n}"
        census_mod.write_records_jsonl(out / f"{stem}.jsonl", records, config)
        census_mod.write_histogram_csv(
            out / f"{stem}_sizes.csv", census_mod.size_histogram(records), config)
        census_mod.write_histogram_csv(
            out / f"{stem}_sizes_nontrivial_perm.csv",
            census_mod.size_histogram(records, only_nontrivial_perm=True), config)
        for metric in ("d-classes", "idempotents"):
            name = metric.replace("-", "")
            census_mod.write_joint_csv(
                out / f"{stem}_size_vs_{name}.csv",
                census_mod.joint_histogram(records, metric), metric, config)
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


def _check_fern(n, k):
    """Refuse ``fern n k`` before any work when its bitmap or its
    half-diagram orbit is over its bound: ballot(n, k)^2 cells, and the
    entries of the orbit's action arrays, C(n, k) halves of rank at least
    n - 2k times n - 1 hooks times n points."""
    what = f"TL_{n} D[{k}]"
    census_mod.check_bound(ballot(n, k) ** 2, FERN_MAX_CELLS, "fern cell",
                           what=what, unit="cells")
    census_mod.check_bound(binomial(n, k) * (n - 1) * n, FERN_MAX_POINT_PRODUCTS,
                           "orbit", what=f"each half-diagram orbit of {what}",
                           unit="point-products")


def _idempotent_cells(rows, cols):
    """Whether x*x == x for the diagram x of every cell: the check of the
    fern, which multiplies the diagrams and reads no code of the mask."""
    n = rows.shape[1]
    mask = np.empty((len(rows), len(cols)), dtype=bool)
    step = kernels._CHUNK_BYTES // (len(cols) * n * _CHECK_CELL_BYTES)
    for part in kernels._spans(len(rows), step):
        x = engine.tl_cell_diagrams(rows[part], cols)
        mask[part] = (engine.tl_products(x, x) == x).all(axis=1).reshape(-1, len(cols))
    return mask


def cmd_fern(args):
    if args.n < 1:  # before the index, which no such degree has
        raise catalog.UnsupportedFamilyDegree("degree must be >= 1")
    if not 0 <= args.dclass <= args.n // 2:
        print(f"TL_{args.n} has no D-class index {args.dclass}", file=sys.stderr)
        return 2
    _check_fern(args.n, args.dclass)
    rows, cols, mask = engine.tl_fern(catalog.standard_generators("TL", args.n),
                                      args.dclass)
    engine.write_pgm(args.out, mask, _config_line(args))
    black = int(mask.sum())

    brute_mask = _idempotent_cells(rows, cols)
    brute = int(brute_mask.sum())
    verdict = "MATCH" if np.array_equal(brute_mask, mask) else "MISMATCH"
    print(f"TL_{args.n} D[{args.dclass}]: {len(rows)}x{len(cols)} bitmap, "
          f"{black} idempotent cells (brute-force {brute}, {verdict})")
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
