module github.com/optik-go/optik/bench

go 1.24

require github.com/optik-go/optik v0.0.0

replace github.com/optik-go/optik => ../
