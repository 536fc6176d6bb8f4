"""Frozen reference implementations that tests hold fast paths to."""
