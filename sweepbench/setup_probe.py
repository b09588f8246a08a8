"""Set-up probe: everything `diamondqc sweep ARGS` does before its first row.

    python3 setup_probe.py sweep --preset fig2a --out x.csv ...

It imports the CLI, parses the arguments with the CLI's own parser and
builds and validates the sweep spec, then exits. The benchmark times it
from spawn to exit, so interpreter start-up and imports are included.
"""
import sys

from diamondqc.cli import build_parser
from diamondqc.sweep import figure_preset, read_sweep_config, with_oracle_check

args = build_parser().parse_args(sys.argv[1:])
if args.preset is not None:
    spec = figure_preset(args.preset, n_points=args.points or 201)
else:
    spec = read_sweep_config(args.config)
if args.oracle_every is not None:
    with_oracle_check(spec, args.oracle_every).validate()
