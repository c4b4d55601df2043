module ib12x/benchmark

go 1.22

require ib12x v0.0.0

replace ib12x => ../
