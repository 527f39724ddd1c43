"""Peak resident memory of a process that only parses and recognizes.

    python3 rss_probe.py <src dir> <inputs.json>

The inputs file is a JSON list of wire-format texts, written beforehand by
run.py.  Prints the number of accepted instances and the peak resident set
size in KiB.
"""

import json
import resource
import sys

sys.path.insert(0, sys.argv[1])

from ptpig import parse_tagged_graph, recognize  # noqa: E402

with open(sys.argv[2], encoding="utf-8") as fh:
    texts = json.load(fh)
graphs = [parse_tagged_graph(t) for t in texts]
del texts
results = [recognize(g) for g in graphs]
print(sum(r.accepted for r in results), resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
