"""Record the reference results every benchmark operation is checked against.

    python3 perfbench/record_reference.py

Run from the root of a checkout.  It writes ``perfbench/reference.json``:

* ``scenarios``: for each bundled scenario the benchmark runs, the SHA-256
  of ``summary.json`` at the stated seed and the benchmark's sample count,
  and the classifier block (which does not depend on the seed);
* ``products_default_seed``: a digest of the classifier output and all
  histogram counts of each product the default seed generates;
* ``exact_pool``: a digest of the support, component and branch notes (or
  of "not covered") of every sequence in the exact pool; sequences that
  fail any other way are left out of the pool (null);
* ``sl4_measures``: the histogram counts of every ``SL_4`` measure at the
  stated seed, which other seeds are compared with statistically.

The file fixes behaviour at the commit that records it.  Re-record only
when a change is meant to alter results, and say so in that change.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE.parent) as tmp:
        ctx = wl.Context({}, Path(tmp))
        scenarios = {}
        for name in wl.SL3_SCENARIOS + wl.SL2_SCENARIOS:
            count = wl.SL3_COUNT if name in wl.SL3_SCENARIOS else None
            res = wl._cli_entry(ctx, name, count, wl.DEFAULT_SEED).run()
            if res["exit"] != 0 or res["verdict"] != "agree":
                raise SystemExit(f"{name} does not agree: {res}")
            scenarios[name] = {"summary_sha256": res["summary_sha256"],
                               "classifier": res["classifier"]}
            print(name, res["summary_sha256"][:16], flush=True)

        products = {}
        for doc in wl.product_docs(wl.DEFAULT_SEED):
            res = wl._product_entry(ctx, doc, wl.DEFAULT_SEED).run()
            if not res["ok"]:
                raise SystemExit(f"{doc['name']} does not agree")
            products[doc["name"]] = wl.digest(res)
        print("products", len(products), flush=True)

        pool = wl.exact_pool()
        results = []
        for doc in pool:
            try:
                seq = ctx.cli.scenario_from_json(doc).sequence
                results.append(wl.digest(wl.exact_outcome(ctx, seq)))
            except Exception:  # outside the catalog's valid inputs: not in the pool
                results.append(None)
        usable = sum(r is not None for r in results)
        if usable < wl.EXACT_PER_SEED:
            raise SystemExit(f"only {usable} usable exact sequences")
        print("exact pool", usable, "of", len(pool), flush=True)

        sl4 = {}
        for item in wl.sl4_items():
            spec, g = wl.sl4_translate(ctx, item)
            sl4[item["key"]] = wl.sl4_measure(ctx, spec, g, wl.DEFAULT_SEED, wl.SL4_COUNT)
        print("sl4 measures", len(sl4), flush=True)

    reference = {
        "scenarios": scenarios,
        "products_default_seed": products,
        "exact_pool": {"pool_digest": wl.digest(pool), "results": results},
        "sl4_measures": sl4,
    }
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
