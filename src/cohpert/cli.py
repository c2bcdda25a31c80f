"""Command-line interface.

Verbs:
  scenario <name>   run a named scenario with optional flag overrides
  check <config>    run one criterion on a channel + family JSON config
  scan <config>     run a scenario described entirely by a JSON config

Exit status reflects execution health (0 = clean completion) regardless of
the scientific verdicts in the emitted reports.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from .scenarios import SCENARIOS, GridSpec, ScenarioConfig, run_custom, run_scenario
from .tolerances import DEFAULT, Tolerances

_SCHEMA_HELP = "CSV column schemas:\n" + "\n".join(
    f"  {name}: {','.join(columns)}" for name, (_, columns) in sorted(SCENARIOS.items())
)


def _parse_grid(text: str) -> GridSpec:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"grid must be lo:hi:steps, got {text!r}")
    try:
        return GridSpec(float(parts[0]), float(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _parse_kv(pairs: Sequence[str]) -> dict:
    out = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ValueError(f"expected key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ValueError(f"bad value in {pair!r}: {exc}") from exc
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohpert",
        description="Coherent-information perturbation analysis for quantum channels.",
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sc = sub.add_parser(
        "scenario",
        help="run a named scenario",
        epilog=_SCHEMA_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sc.add_argument("name", choices=list(SCENARIOS))
    sc.add_argument("--grid", type=_parse_grid, default=None, metavar="LO:HI:STEPS")
    sc.add_argument("--out", default=".", metavar="DIR", help="output directory")
    sc.add_argument("--format", choices=["csv", "json", "both"], default="both")
    sc.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                    help="channel parameter override (repeatable)")
    sc.add_argument("--tol", action="append", default=[], metavar="KEY=VALUE",
                    help="tolerance override (repeatable)")

    ck = sub.add_parser("check", help="run one criterion from a JSON config")
    ck.add_argument("config", help="JSON file with channel, family, criterion, sense")

    sn = sub.add_parser("scan", help="run a scenario from a JSON config")
    sn.add_argument("config", help="JSON file with a full scenario config")

    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"invalid JSON in {path} (line {exc.lineno}, column {exc.colno}): {exc.msg}"
        ) from exc


def _tolerances(pairs: Sequence[str]) -> Tolerances:
    """The default tolerances with the ``--tol`` overrides applied."""
    names = [f.name for f in dataclasses.fields(Tolerances)]
    overrides = {key.lower(): value for key, value in _parse_kv(pairs).items()}
    for key in overrides:
        if key not in names:
            raise ValueError(f"unknown tolerance {key!r}; tunable: " + ", ".join(names))
    return dataclasses.replace(DEFAULT, **overrides)


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    try:
        if args.command == "scenario":
            cfg = ScenarioConfig(
                scenario=args.name,
                params=_parse_kv(args.param),
                grid=args.grid,
                output=args.out,
                fmt=args.format,
                tol=_tolerances(args.tol),
            )
            summary = run_scenario(cfg)
            for key in ("csv", "json"):
                if key in summary:
                    print(f"wrote {summary[key]}")
            return 0

        if args.command == "check":
            obj = _load_json(args.config)
            if not isinstance(obj, dict):
                raise ValueError(f"check config must be a JSON object, got {obj!r}")
            for key in ("channel", "family", "criterion"):
                if key not in obj:
                    raise ValueError(f"config is missing field {key!r}")
            report = run_custom(
                obj["channel"], obj["family"], obj["criterion"], obj.get("sense", "positive_f")
            )
            json.dump(report.to_json(), sys.stdout, indent=2, sort_keys=True)
            print()
            return 0

        if args.command == "scan":
            cfg = ScenarioConfig.from_json(_load_json(args.config))
            summary = run_scenario(cfg)
            for key in ("csv", "json"):
                if key in summary:
                    print(f"wrote {summary[key]}")
            return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
