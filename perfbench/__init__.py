"""Repository benchmark: PBFT over RUBIN and the Fig-4 sweep."""
