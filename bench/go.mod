module llm4em/bench

go 1.23

require llm4em v0.0.0

replace llm4em => ../
