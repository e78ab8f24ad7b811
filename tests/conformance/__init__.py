"""The knob-lattice conformance harness (see harness.py)."""
