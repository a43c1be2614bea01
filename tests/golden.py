"""Frozen golden values: the reference law tables (3 decimal places) and
digests of `screen` reports on a committed fixture."""

import hashlib

NB1_TABLE = {1: 0.301, 2: 0.176, 3: 0.125, 4: 0.097, 5: 0.079, 6: 0.067, 7: 0.058, 8: 0.051, 9: 0.046}
NB2_TABLE = {0: 0.120, 1: 0.114, 2: 0.109, 3: 0.104, 4: 0.100, 5: 0.097, 6: 0.093, 7: 0.090, 8: 0.088, 9: 0.085}
CNB1_800_TABLE = {1: 0.330, 2: 0.193, 3: 0.137, 4: 0.106, 5: 0.087, 6: 0.073, 7: 0.064, 8: 0.006, 9: 0.005}
CNB2_800_TABLE = {0: 0.121, 1: 0.114, 2: 0.109, 3: 0.104, 4: 0.100, 5: 0.097, 6: 0.093, 7: 0.090, 8: 0.087, 9: 0.085}

# `screen` on tests/data/golden_counts.csv with every test, --lower 1 --bound 9999,
# keyed by (policy, format): (exit code, sha256 of stdout). Recorded at commit
# 8de0592, where digits were tabulated from each value's decimal string.
SCREEN_ARGS = ["--columns", "north,south,small", "--tests", "nb1,nb2,joint2,rnb1,rnb2", "--lower", "1",
               "--bound", "9999"]
SCREEN_DIGESTS = {
    ("exclude-short", "text"): (1, "0a724b419e46004cbec917f9fbe2170bdb6b9fe681df09067d3e437b6bc35ee2"),
    ("exclude-short", "csv"): (1, "e9699e5de65df84e1cc42522c82a616127b9cccdecab07c9d07cdd64e92771d1"),
    ("exclude-short", "json"): (1, "ad75bf2adf35affc9774ae7ac0be8a605aeef7b8b2b1c6eaa019a36d770e290c"),
    ("trailing-zero", "text"): (2, "e68ae1c6db21709f417dacc48b452095e446b73a8975d4238efe351031b491ec"),
    ("trailing-zero", "csv"): (2, "5f82600bf51f824c6e86f9dda56ef16fc2069fc4c0bf4263428e3de289894faf"),
    ("trailing-zero", "json"): (2, "bb8ab52fd10c8fb02f94756a01d9a1e8894d959ecc052aae17f2fcbbef9199b1"),
}

# `screen ... --proportions DIR` with SCREEN_ARGS, keyed by (policy, format):
# (exit code, sha256 of DIR as `proportions_tree_digest` reads it). Recorded at
# commit 6d64564, where --proportions tabulated each (column, test) pair again.
PROPORTIONS_DIGESTS = {
    ("exclude-short", "csv"): (1, "9a6cefa5030a4e4cb21a120eb5a87797a06ce477587c3a8abe0ab21b422bd89a"),
    ("exclude-short", "json"): (1, "f246d8caf105b3cfdaa661508d8ad4a138e6c28714f9f1c5275639309f968c3f"),
    ("trailing-zero", "csv"): (2, "dede2fd69812cf8a5b7415fabcabc7348e8beb6a74ffbdc4a2a3855c4906fc92"),
    ("trailing-zero", "json"): (2, "606932f6aa739a3df04cec8bdcc598c0e5c4b059309f3461dcae7942a6318c80"),
}


def proportions_tree_digest(directory) -> str:
    """sha256 over the files of a directory in name order: name, NUL, bytes, NUL."""
    h = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()
