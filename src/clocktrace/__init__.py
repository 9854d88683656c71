"""Tree clocks and vector clocks over concurrent execution traces."""
