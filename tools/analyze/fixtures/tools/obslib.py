# Miniature obslib for the event-vocabulary fixtures.  "delta" is seeded
# stale (no EventType maps to it); "beta" is deliberately missing so the
# C++-but-not-Python direction fires too.  PHASE_NAMES seeds the same two
# directions for the Phase vocabulary: "stale" and the missing "apply".
EVENT_TYPES = frozenset({
    "alpha", "delta",
})

PHASE_NAMES = frozenset({
    "idle", "stale",
})
