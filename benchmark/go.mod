module hare/benchmark

go 1.24

require hare v0.0.0

replace hare => ../
