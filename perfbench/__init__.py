"""A benchmark of the whole analysis path and each layer on it."""
