"""crownmerge benchmark harness; see README.md."""
