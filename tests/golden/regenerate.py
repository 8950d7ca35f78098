"""Write ``digests.json``, the same-results corpus, from the package as it stands.

Run from the repository root:

    PYTHONPATH=src python tests/golden/regenerate.py

It prints each case whose digest differs from the file it replaces; a change
that alters an output on purpose lists those cases where it is described.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import corpus

OUT = Path(__file__).with_name("digests.json")


def build() -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        results = {case["name"]: corpus.run_cli(case, Path(tmp)) for case in corpus.CLI_CASES}
    mpf = {}
    for n, shift, tail in corpus.MPF_CASES:
        spec, _ = corpus.mpf_case(n, shift, tail)
        p = corpus.exact(spec.p)
        exact = corpus.longrun.power(n, corpus.ALPHAS[0], tail, "paper",
                                     corpus.longrun.AlternativeSpec.direct(p)).power
        mpf[corpus.mpf_key(n, shift, tail)] = {"p": corpus.decimal_of(p),
                                               "power": corpus.decimal_of(exact)}
    return {
        "csv": {name: corpus.sha256(data) for name, data in corpus.CSVS.items()},
        "cli": {name: corpus.cli_digest(r) for name, r in results.items()},
        "full_text": {name: results[name] for name in corpus.FULL_TEXT},
        "library": corpus.library_digests(),
        "large": corpus.large_digests(),
        "mpf": mpf,
    }


def main() -> int:
    old = json.loads(OUT.read_text()) if OUT.exists() else {}
    new = build()
    for section, entries in new.items():
        for name, value in entries.items():
            if name in old.get(section, {}) and old[section][name] != value:
                print(f"changed: {section}: {name}")
    OUT.write_text(json.dumps(new, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}: " + ", ".join(f"{len(v)} {k}" for k, v in new.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
