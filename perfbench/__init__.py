"""Fixed-seed benchmark of the salient pipeline: train, extract and eval
workloads, untraced end-to-end metrics and a traced per-layer run.
See README.md in this directory."""
