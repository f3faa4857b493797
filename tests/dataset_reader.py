"""The reference reader of the dataset text format, for tests only.

``synth`` writes a dataset with ``data.save_dataset``; no command reads one
back, so the reader that parses the format lives here, beside the round-trip
and rejection tests that pin the format.
"""

from i2vmatch.data import (DATASET_FORMAT, SyntheticConfig, SyntheticDataset, VideoRecord,
                           parse_floats)


def load_dataset(path, config: SyntheticConfig | None = None) -> SyntheticDataset:
    """Parse a dataset file back into records.

    The file does not carry the generator config; pass the original
    ``config`` to restore a held-out eval cohort, otherwise every identity
    is treated as part of the retrieval cohort.
    """
    with open(path) as fh:
        header = fh.readline().split()
        if not header or header[0] != DATASET_FORMAT:
            raise ValueError(f"not a {DATASET_FORMAT} file: {path}")
        if len(header) < 2 or not header[1].startswith("dim="):
            raise ValueError(f"malformed dataset header: {' '.join(header)!r}")
        dim = int(header[1].removeprefix("dim="))
        videos = []
        for line_no, line in enumerate(fh, start=2):
            parts = line.split()
            if not parts:
                continue
            if len(parts) < 3:
                raise ValueError(f"record on line {line_no} has {len(parts)} fields; "
                                 f"expected identity, camera, frame count and values")
            ident, cam, length = int(parts[0]), int(parts[1]), int(parts[2])
            values = parse_floats(parts[3:], f"record for identity {ident} camera {cam}")
            if values.size != length * dim:
                raise ValueError(
                    f"record for identity {ident} camera {cam} has {values.size} "
                    f"values, expected {length * dim}")
            videos.append(VideoRecord(ident, cam, values.reshape(length, dim)))
    if config is None:
        idents = {v.identity for v in videos}
        cams = {v.camera for v in videos}
        lengths = [v.length for v in videos]
        config = SyntheticConfig(num_identities=max(2, len(idents)),
                                 cameras_per_identity=max(2, len(cams)),
                                 frames_per_video=(min(lengths), max(lengths)),
                                 input_dim=dim)
    return SyntheticDataset(config=config, videos=videos)
