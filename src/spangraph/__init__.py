"""spangraph: memory-capped GNN training on growing spanning subgraphs.

The package trains full-batch GCN / mean-aggregator SAGE models on a
sequence of spanning subgraphs that start empty and grow each epoch under
a hard edge-ratio cap.  Edge selection is quality-aware (variance-minimized
or gradient-noise-reduced weighting) and accelerated by two-step sampling.

Import the submodules you need directly:

    from spangraph import graphstore, sampler, scheduler, gnn
"""

__version__ = "0.1.0"
