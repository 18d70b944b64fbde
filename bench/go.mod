module llmq/bench

go 1.24

require llmq v0.0.0

replace llmq => ../
