"""Pipeline benchmark for the hyperkkl CLI; see README.md."""
