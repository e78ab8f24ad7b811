"""Frozen reference implementations the property tests compare against."""
