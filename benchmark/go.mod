module dbdedup/benchmark

go 1.22

require dbdedup v0.0.0

replace dbdedup => ../
