"""Dynamic-search ranking with a reinforcement-trained recurrent value network."""

__version__ = "0.1.0"
