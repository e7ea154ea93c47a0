module chapelfreeride/benchmark

go 1.22

require chapelfreeride v0.0.0

replace chapelfreeride => ../
