module aft/benchmark

go 1.22

require aft v0.0.0

replace aft => ../
