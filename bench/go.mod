module sde/bench

go 1.22

require sde v0.0.0

replace sde => ../
