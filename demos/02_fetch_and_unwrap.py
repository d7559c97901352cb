"""Fetch one WARC record by byte range and unwrap it to the GPX payload.

A WARC file is a chain of independently gzip-compressed records, so a single
ranged GET (Range: bytes=offset-offset+len-1) retrieves one capture without
downloading the archive.  The record then unwraps in two steps: WARC headers,
then the embedded HTTP response whose body is the file itself.

This demo uses the local fixture transport; swapping in HttpRangeTransport
(and the real index offsets) is the only change needed for live runs.
"""

import tempfile
from pathlib import Path

from gpx_harvest import (CandidateRecord, FetchPolicy, FixtureTransport,
                         build_range_header, extract_payload, fetch_candidate)
from gpx_harvest.synthetic import gpx_xml, write_warc

WARC_NAME = "crawl-data/CC-MAIN-2024-10/seg/warc/demo.warc.gz"

with tempfile.TemporaryDirectory() as tmp:
    payload = gpx_xml([{"name": "Ridge walk", "desc": "Up and over the ridge.",
                        "segments": [[(51.0, -0.5, 120.0), (51.002, -0.5, 135.0)]]}])
    offsets = write_warc(Path(tmp) / WARC_NAME, [
        ("https://walks.example/routes/ridge.gpx", payload),
    ])
    offset, length = offsets[0]

    candidate = CandidateRecord(url="https://walks.example/routes/ridge.gpx",
                                mime_detected="application/gpx+xml",
                                warc_file=WARC_NAME, warc_offset=offset,
                                warc_len=length, crawl_id="CC-MAIN-2024-10")
    print("range header:", build_range_header(offset, length))

    policy = FetchPolicy(rate_limit_per_s=100.0, base_url="https://data.example")
    record_bytes = fetch_candidate(candidate, policy, FixtureTransport(tmp))
    print(f"fetched {len(record_bytes)} record bytes")

    recovered = extract_payload(record_bytes)
    assert recovered == payload
    print(f"unwrapped {len(recovered)} payload bytes:")
    print(recovered.decode()[:120] + "...")
