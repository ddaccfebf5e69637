"""One ``run_pipeline`` call in a fresh interpreter, for the cold start.

Usage: python3 probe.py SRC_DIR SCENE OUT_DIR PARAMETER

Imports ``crownmerge.cli`` from SRC_DIR and runs the scene once with
``--dump-links``; the caller times the process from spawn to exit.
"""

import sys
from pathlib import Path


def main() -> None:
    src, scene, out_dir, parameter = sys.argv[1:5]
    sys.path.insert(0, src)
    from crownmerge.cli import PipelineConfig, run_pipeline

    run_pipeline(
        PipelineConfig(
            input_path=Path(scene), out_dir=Path(out_dir), parameter=parameter, dump_links=True
        )
    )


if __name__ == "__main__":
    main()
