"""Reference implementations kept only to prove a fast path equivalent."""
