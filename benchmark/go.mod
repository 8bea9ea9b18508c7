module unbiasedfl/benchmark

go 1.22

require unbiasedfl v0.0.0

replace unbiasedfl => ../
