from __future__ import annotations

from bugaug.rng import derive_seed


def test_derive_seed_is_pinned():
    """Every random stream is keyed by these seeds, so a change to how a key is
    hashed would change every artifact."""
    assert derive_seed(41, 3, 0) == 12237047670810518970
    assert derive_seed(42, "shuffle", "Login fails, it crashes.") == 15215343839308409178
    assert derive_seed(7, "nl", "bug-0001", 2, "OB", 1) == 11948836515636454113
    assert derive_seed(1234, "balance", "Bug-7", 3.5, None, "é€") == 6193267091855764083
    assert derive_seed(0) == 9523843951405948789

