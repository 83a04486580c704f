"""Command line front end: solve, verify, enumerate, example.

Exit codes: 0 success (solve/verify: certificate passed; enumerate:
something found), 1 negative verdict, 2 validation or argument failure,
3 no convergence within the round cap, 4 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .documents import (
    DocumentError,
    document_text,
    json_text,
    parse_game,
    parse_profile,
    parse_rational,
    serialize_profile,
)
from .fixtures import EXAMPLES, example_document
from .games import GameSpec, leaf_outcomes
from .scheme import ConvergenceError, SchemeConfig, run_scheme, trace_as_json
from .trees import NEVER
from .verify import CapExceededError, NepCertificate, certify, find_all_eps_neps

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_VALIDATION = 2
EXIT_NO_CONVERGENCE = 3
EXIT_CAP = 4


class UsageError(ValueError):
    """Bad flag value; reported like a validation failure."""


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from None


def _write_text(path: str | None, text: str) -> None:
    """Write ``text`` to the file at ``path``, or to stdout without one."""
    if path is None:
        sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from None


def _load_spec(args: argparse.Namespace, enforce_assumption_a: bool) -> GameSpec:
    if args.example is not None:  # argparse admits only known names
        text = document_text(example_document(args.example))
    else:
        text = _read_text(args.game)
    return parse_game(text, enforce_assumption_a=enforce_assumption_a)


def _parse_epsilon(text: str) -> Fraction:
    epsilon = parse_rational(text, "--epsilon")
    if epsilon < 0:
        raise UsageError(f"--epsilon must be >= 0, got {epsilon}")
    return epsilon


def _parse_order(text: str, num_players: int) -> tuple[int, ...]:
    try:
        order = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise UsageError(f"--order must look like 1,2,3; got {text!r}") from None
    if sorted(order) != list(range(1, num_players + 1)):
        raise UsageError(f"--order {text!r} is not a permutation of 1..{num_players}")
    return order


def _emit(payload: dict, out: str | None) -> None:
    _write_text(out, json_text(payload, sort_keys=True) + "\n")


def certificate_json(certificate: NepCertificate) -> dict:
    return {
        "epsilon": str(certificate.epsilon),
        "achieved": [str(v) for v in certificate.achieved],
        "best_response": [str(v) for v in certificate.best_response],
        "gains": [str(v) for v in certificate.gains],
        "is_eps_nep": certificate.is_eps_nep,
    }


def _realized_json(spec: GameSpec, outcomes: list) -> list[dict]:
    return [
        {
            "leaf": leaf.id,
            "stage": None if stage == NEVER else int(stage),
            "coalition": list(coalition),
        }
        for leaf, (stage, coalition) in zip(spec.tree.leaves, outcomes)
    ]


def cmd_solve(args: argparse.Namespace) -> int:
    spec = _load_spec(args, enforce_assumption_a=True)
    epsilon = _parse_epsilon(args.epsilon)
    order = None if args.order is None else _parse_order(args.order, spec.num_players)
    config = SchemeConfig(epsilon=epsilon, order=order, max_rounds=args.max_rounds)
    try:
        result = run_scheme(spec, config, validated=True)
    except ConvergenceError as exc:
        if args.trace is not None:
            _write_text(args.trace, json_text(trace_as_json(exc.trace), sort_keys=False) + "\n")
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE

    certificate = certify(spec, result.capped, epsilon)
    report = {
        "order": list(config.order_for(spec.num_players)),
        "epsilon": str(epsilon),
        "rounds_used": result.rounds_used,
        "profile": {
            "uncapped": serialize_profile(result.uncapped)["rules"],
            "capped": serialize_profile(result.capped)["rules"],
        },
        "realized": _realized_json(spec, leaf_outcomes(spec, result.capped)),
        "expected_payoffs": [str(v) for v in certificate.achieved],
        "certificate": certificate_json(certificate),
    }
    if args.trace is not None:
        rows = trace_as_json(result.trace)
        _write_text(args.trace, json_text(rows, sort_keys=False) + "\n")
        report["trace"] = rows
    _emit(report, args.out)
    return EXIT_OK if certificate.is_eps_nep else EXIT_NEGATIVE


def cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args, enforce_assumption_a=False)
    epsilon = _parse_epsilon(args.epsilon)
    profile = parse_profile(_read_text(args.profile), spec)
    certificate = certify(spec, profile, epsilon)
    _emit(certificate_json(certificate), None)
    return EXIT_OK if certificate.is_eps_nep else EXIT_NEGATIVE


def cmd_enumerate(args: argparse.Namespace) -> int:
    spec = _load_spec(args, enforce_assumption_a=False)
    epsilon = _parse_epsilon(args.epsilon)
    found = find_all_eps_neps(spec, epsilon, rule_cap=args.cap)
    _emit(
        {
            "epsilon": str(epsilon),
            "count": len(found),
            "profiles": [
                {
                    "rules": serialize_profile(profile)["rules"],
                    "certificate": certificate_json(certificate),
                }
                for profile, certificate in found
            ],
        },
        args.out,
    )
    if found or args.allow_empty:
        return EXIT_OK
    return EXIT_NEGATIVE


def cmd_example(args: argparse.Namespace) -> int:
    _write_text(args.out, document_text(example_document(args.name)))  # a known name
    return EXIT_OK


def _add_game_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--game", help="path to a game document")
    source.add_argument(
        "--example", choices=sorted(EXAMPLES), help="built-in example name"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynkin",
        description="Exact equilibrium solver for stopping games on scenario trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the constructive sweep and certify")
    _add_game_source(solve)
    solve.add_argument("--epsilon", required=True, help="tolerance, e.g. 1/100")
    solve.add_argument("--order", help="visiting order, e.g. 2,3,1")
    solve.add_argument("--max-rounds", type=int, default=None)
    solve.add_argument("--trace", help="write the step trace to this path")
    solve.add_argument("--out", help="write the report to this path")
    solve.set_defaults(func=cmd_solve)

    verify = sub.add_parser("verify", help="certify a profile document")
    _add_game_source(verify)
    verify.add_argument("--profile", required=True, help="path to a profile document")
    verify.add_argument("--epsilon", required=True)
    verify.set_defaults(func=cmd_verify)

    enumerate_ = sub.add_parser("enumerate", help="exhaustive equilibrium search")
    _add_game_source(enumerate_)
    enumerate_.add_argument("--epsilon", required=True)
    enumerate_.add_argument("--cap", type=int, default=4096)
    enumerate_.add_argument("--allow-empty", action="store_true")
    enumerate_.add_argument("--out")
    enumerate_.set_defaults(func=cmd_enumerate)

    example = sub.add_parser("example", help="emit a built-in game document")
    example.add_argument("--name", required=True, choices=sorted(EXAMPLES))
    example.add_argument("--out")
    example.set_defaults(func=cmd_example)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # exact values can outgrow the interpreter's limit on int/str digit
    # conversion (Python 3.10.7 and later): lift it for the command only
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    limit = get_limit() if get_limit else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        for flag in ("out", "trace"):  # an empty path is a bad value, not "not given"
            if getattr(args, flag, None) == "":
                raise UsageError(f"--{flag} must name a file, got ''")
        return args.func(args)
    except (DocumentError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
