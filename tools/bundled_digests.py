"""sha256 of every output file of the bundled scenarios, at two job counts.

Runs each scenario in-process (``cli.run_scenario``, then
``cli.write_outputs``) at its stated count and seed, or at ``--samples``,
once with ``--jobs 1`` and once with ``--jobs 3``, and prints one line per
output file but ``meta.txt``, which holds wall times: the scenario, the file
name and the file's sha256.  It exits 1 when the two job counts write
different bytes.  Two printouts, one per commit, compared with ``diff``,
show whether a change moved an output bit.

    python tools/bundled_digests.py [--scenario NAME ...] [--samples N] > digests.txt

The package is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from escmass.cli import bundled_scenarios, load_scenario, run_scenario, write_outputs  # noqa: E402

JOBS = (1, 3)


def digests(name: str, jobs: int, samples: Optional[int]) -> Dict[str, str]:
    """File name -> sha256 of each output file but meta.txt of one run."""
    scn = load_scenario(name)
    if samples is not None:
        scn = replace(scn, count=samples)
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_outputs(run_scenario(scn, jobs=jobs), out)
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name != "meta.txt"
        }


def main(argv=None) -> int:
    par = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    par.add_argument("--scenario", nargs="+", default=[p.stem for p in bundled_scenarios()])
    par.add_argument("--samples", type=int, help="override each scenario's sample count")
    args = par.parse_args(argv)
    same = True
    for name in args.scenario:
        first, second = (digests(name, jobs, args.samples) for jobs in JOBS)
        for file, digest in first.items():
            print(f"{name} {file} {digest}")
        if first != second:
            same = False
            print(f"{name}: --jobs {JOBS[0]} and --jobs {JOBS[1]} differ", file=sys.stderr)
    return 0 if same else 1


if __name__ == "__main__":
    raise SystemExit(main())
