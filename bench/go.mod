module hpm/bench

go 1.22

require hpm v0.0.0

replace hpm => ../
