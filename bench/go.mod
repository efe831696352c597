module ftckpt/bench

go 1.22

require ftckpt v0.0.0

replace ftckpt => ../
