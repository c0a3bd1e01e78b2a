"""Fixed pure-Python work that prints its own run time in seconds.

It imports nothing from folkit, so no change to folkit moves it; only the
machine's speed does. The runner starts it next to the CLI runs and scales
the end-to-end times by it, so slow and fast phases of a shared machine
cancel.

The work walks a few megabytes of small dicts, tuples and strings in a
shuffled order. A probe whose data fits in the CPU caches gained much more
than folkit in the fast phases of the reference machine, so scaling by it
overcorrected (see README.md).
"""

import json
import random
import re
import time

TOKEN = re.compile(r"\s*(?:(\w+)|(.))")


def work(rounds: int = 6) -> int:
    """Tokenize strings built from a shuffled pool of 1,500 dicts of 40 entries each."""
    rng = random.Random(1)
    pool = [{"k%d" % i: ("P%d" % (i % 97), i, str(i)) for i in range(j, j + 40)} for j in range(0, 60000, 40)]
    total = 0
    for r in range(rounds):
        order = list(range(len(pool)))
        rng.shuffle(order)
        for i in order:
            text = " ".join(v[0] for v in pool[i].values())
            total += sum(1 for _ in TOKEN.finditer(text))
        total += len(json.dumps(pool[r]))
    return total


if __name__ == "__main__":
    start = time.perf_counter()
    work()
    print(time.perf_counter() - start)
