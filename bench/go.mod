module affinity/bench

go 1.24

require affinity v0.0.0

replace affinity => ../
