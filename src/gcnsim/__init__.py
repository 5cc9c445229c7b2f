"""Group-centric networking simulator: discovery regeneration, tunable
relay resiliency, targeted flooding, and a TTL-scoped flooding baseline."""
