module coordsample/bench

go 1.22

require coordsample v0.0.0

replace coordsample => ../
