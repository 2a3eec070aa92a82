"""The benchmark of the simulator and the live service; see bench/README.md."""
