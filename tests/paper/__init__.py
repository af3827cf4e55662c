"""Test package (unique module paths for duplicate basenames across suites)."""
