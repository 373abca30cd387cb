"""Re-reads every JSON artifact under the working directory with python3's
json module, rejecting NaN and Infinity: each *.json file as one document,
each line of each *.jsonl file as one record. Exits 1 on any bad record or
when there is nothing to check.

Usage: python3 .github/strict_json.py   (from the directory to check)
"""
import json, os, sys

def reject_constant(name):
    raise ValueError(f"non-standard constant {name}")

checked, bad = 0, 0
for root, dirs, files in os.walk("."):
    dirs[:] = sorted(d for d in dirs if d not in ("target", ".git", ".bench_build"))
    for name in sorted(files):
        if not name.endswith((".json", ".jsonl")):
            continue
        path = os.path.join(root, name)
        with open(path) as f:
            text = f.read()
        docs = [text] if name.endswith(".json") else [l for l in text.splitlines() if l.strip()]
        for i, doc in enumerate(docs, 1):
            try:
                json.loads(doc, parse_constant=reject_constant)
            except ValueError as e:
                bad += 1
                print(f"{path} record {i}: {e}")
        checked += 1
print(f"{checked} JSON artifact(s) checked, {bad} bad record(s)")
sys.exit(1 if bad or not checked else 0)
