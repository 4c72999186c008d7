module numabfs/bench

go 1.22

require numabfs v0.0.0

replace numabfs => ../
