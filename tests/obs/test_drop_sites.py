"""Meta-test: every packet-drop site feeds the flight recorder.

Conservation only holds if no code path discards a data packet without
telling the ledger. Grepping the source for drop-counter increments
and requiring a flight hook in the surrounding lines turns "someone
added a drop site and forgot the recorder" from a silent leak (caught
only if a scenario happens to exercise it) into an immediate, named
test failure.

Exempted sites are *frame-level* fates: MAC retry exhaustion and the
fault manager's per-frame RX filters don't consume the packet — the
MAC retries and, on exhaustion, routing's ``link_failed`` owns the
verdict (salvage / re-buffer / repair / terminal drop).
"""

import re
from pathlib import Path

from repro.core.drops import TERMINAL_VALUES, DropReason

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"

#: Layers whose counters track packet discards.
LAYERS = ("routing", "mac", "net", "faults")

#: Matches any drop-counter bump: ``drops_no_route += 1``,
#: ``self.drops += 1``, ``crash_queue_drops += 1`` ...
_SITE = re.compile(r"(?:\.|\b)(\w*drops\w*)\s*\+=\s*1")

#: A flight hook (or the recorder gate) near the site.
_HOOK = re.compile(r"flight")

#: How many lines around the increment may carry the hook.
WINDOW = 10

#: (file relative to src/repro, counter) pairs that are frame-level by
#: design — the packet survives the event, so no ledger verdict here.
EXEMPT = {
    # Retry exhaustion hands the packet to routing.link_failed.
    ("mac/base.py", "drops_retry_limit"),
    # Per-frame RX filters: the sender's MAC never sees an ACK and
    # retries; the packet's fate is decided at retry exhaustion.
    ("faults/manager.py", "down_rx_drops"),
    ("faults/manager.py", "partition_drops"),
    ("faults/manager.py", "link_drops"),
}


def _drop_sites():
    for layer in LAYERS:
        for path in sorted((SRC / layer).glob("*.py")):
            lines = path.read_text().splitlines()
            for i, line in enumerate(lines):
                m = _SITE.search(line)
                if m:
                    yield path, i, m.group(1), lines


def test_every_drop_site_has_a_flight_hook_nearby():
    missing = []
    for path, i, counter, lines in _drop_sites():
        rel = str(path.relative_to(SRC))
        if (rel, counter) in EXEMPT:
            continue
        lo = max(0, i - WINDOW)
        hi = min(len(lines), i + WINDOW + 1)
        if not any(_HOOK.search(lines[j]) for j in range(lo, hi)):
            missing.append(f"{rel}:{i + 1} ({counter})")
    assert not missing, (
        "drop sites without a flight hook within "
        f"{WINDOW} lines (wire the recorder or add a justified "
        f"exemption): {missing}"
    )


def test_exemption_list_stays_honest():
    """Every exemption matches a real site — stale entries rot."""
    seen = {
        (str(path.relative_to(SRC)), counter)
        for path, _i, counter, _lines in _drop_sites()
    }
    stale = EXEMPT - seen
    assert not stale, f"exempted drop sites no longer exist: {stale}"


def test_every_terminal_reason_has_a_call_site():
    """The taxonomy carries no dead reasons: each terminal member is
    raised somewhere in the source tree."""
    text = "\n".join(
        p.read_text() for p in SRC.rglob("*.py") if "drops.py" not in p.name
    )
    unused = [
        r.name for r in DropReason
        if r.value in TERMINAL_VALUES and f"DropReason.{r.name}" not in text
    ]
    assert not unused, f"terminal DropReasons never raised: {unused}"


def test_every_reason_appears_in_the_source():
    """Frame-level members too: each one is named (``DropReason.X``)
    or spelled by value (the PHY and MAC trace notes pass plain
    strings) somewhere in the source tree."""
    text = "\n".join(
        p.read_text() for p in SRC.rglob("*.py") if "drops.py" not in p.name
    )
    unused = [
        r.name for r in DropReason
        if f"DropReason.{r.name}" not in text and f'"{r.value}"' not in text
    ]
    assert not unused, f"DropReasons never raised or noted: {unused}"
