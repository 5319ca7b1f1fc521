"""RNG-flow fixture: a tiny repro-shaped tree with a T001 bug."""
