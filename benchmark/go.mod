module haindex/benchmark

go 1.22

require haindex v0.0.0

replace haindex => ../
