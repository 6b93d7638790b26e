"""Teacher-trajectory pipeline for tool-using recommendation agents.

A strong teacher model plans, calls collaborative-filtering graph tools,
reflects, corrects itself, and ranks candidate items. Successful sessions are
serialized into tagged trajectories for supervised distillation; rewards and
difficulty buckets prepare the reinforcement stage; a sampled hit-ratio
evaluator scores the results. The package root exports nothing: import from
the submodules, for example `recteacher.teacher`.
"""
