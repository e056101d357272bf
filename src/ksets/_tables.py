"""Embedded set-file documents for the published catalog sets and the two
construction seeds.  The catalog derives its other sets from these by
construction chains, so they have no document here.

Scalar token conventions per document: 'w3' is the primitive cube root of
unity e^{i2pi/3} (with conjugate 'W3'), 'w6' the primitive sixth root
e^{i pi/3}, 's2' the square root of 2.  An entry like '-w3' is the negative
of the cube root (equivalently the fifth power of the sixth root).
"""

D4_18_9 = """\
dim 4
ray 1 1 0 0 0
ray 2 0 1 0 0
ray 3 0 0 1 0
ray 4 1 1 1 1
ray 5 1 1 1 -1
ray 6 1 -1 1 1
ray 7 1 -1 1 -1
ray 8 1 -1 -1 1
ray 9 1 -1 -1 -1
ray 10 1 1 0 0
ray 11 1 0 0 1
ray 12 1 0 0 -1
ray 13 1 0 -1 0
ray 14 0 1 0 1
ray 15 0 1 0 -1
ray 16 0 1 -1 0
ray 17 0 0 1 1
ray 18 0 0 1 -1
ctx 1 2 17 18
ctx 1 3 14 15
ctx 2 3 11 12
ctx 4 7 13 15
ctx 4 8 12 16
ctx 5 6 13 14
ctx 5 9 11 16
ctx 6 9 10 18
ctx 7 8 10 17
"""

D6_21_7 = """\
dim 6
ray 1 1 1 1 1 1 1
ray 2 1 1 W3 w3 w3 W3
ray 3 1 W3 1 w3 W3 w3
ray 4 1 W3 w3 W3 w3 1
ray 5 1 w3 w3 1 W3 W3
ray 6 1 w3 W3 W3 1 w3
ray 7 1 1 w3 W3 W3 w3
ray 8 1 w3 1 W3 w3 W3
ray 9 1 w3 W3 w3 W3 1
ray 10 1 W3 W3 1 w3 w3
ray 11 1 W3 w3 w3 1 W3
ray 12 1 W3 W3 W3 1 1
ray 13 1 W3 1 1 W3 W3
ray 14 1 w3 1 w3 1 w3
ray 15 1 w3 w3 1 w3 1
ray 16 1 w3 w3 1 1 w3
ray 17 1 1 w3 w3 w3 1
ray 18 1 1 W3 1 W3 W3
ray 19 1 1 W3 W3 1 W3
ray 20 1 1 1 w3 w3 w3
ray 21 1 W3 1 W3 W3 1
ctx 1 2 3 4 5 6
ctx 1 7 8 9 10 11
ctx 2 7 12 13 14 15
ctx 3 8 12 16 17 18
ctx 4 9 13 16 19 20
ctx 5 10 14 17 19 21
ctx 6 11 15 18 20 21
"""

D8_34_9 = """\
dim 8
ray 1 1 -1 0 0 0 0 0 0
ray 2 0 0 1 -1 0 0 0 0
ray 3 1 0 1 0 0 0 0 0
ray 4 1 0 -1 0 0 0 0 0
ray 5 1 -1 1 -1 1 -1 1 1
ray 6 1 -1 -1 1 1 1 -1 1
ray 7 1 -1 1 -1 1 -1 -1 -1
ray 8 1 -1 -1 1 1 1 1 -1
ray 9 0 1 0 0 1 0 0 0
ray 10 0 0 0 1 0 -1 0 0
ray 11 1 0 0 0 0 0 0 1
ray 12 1 0 0 0 0 0 0 -1
ray 13 0 1 0 0 -1 0 0 0
ray 14 0 0 1 0 0 0 1 0
ray 15 0 0 1 0 0 0 -1 0
ray 16 0 0 0 1 0 1 0 0
ray 17 1 0 0 0 -1 0 0 0
ray 18 0 1 0 0 0 0 0 1
ray 19 0 1 0 0 0 0 0 -1
ray 20 0 0 1 0 0 1 0 0
ray 21 0 0 0 1 0 0 1 0
ray 22 0 0 0 1 0 0 -1 0
ray 23 0 0 0 0 1 0 1 0
ray 24 0 0 0 0 1 0 -1 0
ray 25 0 0 0 0 0 1 0 1
ray 26 0 0 0 0 0 1 0 -1
ray 27 1 1 1 1 1 1 1 -1
ray 28 1 1 1 1 1 1 -1 1
ray 29 1 1 1 1 -1 -1 1 -1
ray 30 1 1 1 1 -1 -1 -1 1
ray 31 1 1 -1 -1 1 -1 1 1
ray 32 1 1 -1 -1 1 -1 -1 -1
ray 33 1 1 -1 -1 -1 1 1 1
ray 34 1 1 -1 -1 -1 1 -1 -1
ctx 1 2 23 26 28 29 32 33
ctx 1 2 24 25 27 30 31 34
ctx 3 4 9 13 21 22 25 26
ctx 3 4 10 16 18 19 23 24
ctx 5 6 9 12 20 21 30 33
ctx 5 6 10 15 17 18 27 32
ctx 7 8 9 11 20 22 29 34
ctx 7 8 10 14 17 19 28 31
ctx 9 10 11 12 13 14 15 16
"""

D5_29_16 = """\
dim 5
ray 1 1 0 0 0 0
ray 2 0 1 0 0 0
ray 3 0 0 1 0 0
ray 4 1 1 1 1 0
ray 5 1 1 1 -1 0
ray 6 1 -1 1 1 0
ray 7 1 -1 1 -1 0
ray 8 1 -1 -1 1 0
ray 9 1 -1 -1 -1 0
ray 10 1 1 0 0 0
ray 11 1 0 0 1 0
ray 12 1 0 0 -1 0
ray 13 1 0 -1 0 0
ray 14 0 1 0 1 0
ray 15 0 1 0 -1 0
ray 16 0 1 -1 0 0
ray 17 0 0 1 1 0
ray 18 0 0 1 -1 0
ray 19 0 0 0 0 1
ray 20 0 1 1 1 1
ray 21 0 1 1 -1 1
ray 22 0 1 -1 -1 -1
ray 23 0 1 -1 1 -1
ray 24 0 1 1 -1 -1
ray 25 0 1 1 1 -1
ray 26 0 1 0 0 1
ray 27 0 0 0 1 1
ray 28 0 0 0 1 -1
ray 29 0 0 1 0 -1
ctx 1 2 3 27 28
ctx 1 2 17 18 19
ctx 1 3 14 15 19
ctx 1 14 21 22 29
ctx 1 15 20 23 29
ctx 1 16 20 24 28
ctx 1 16 21 25 27
ctx 1 17 23 24 26
ctx 1 18 22 25 26
ctx 2 3 11 12 19
ctx 4 7 13 15 19
ctx 4 8 12 16 19
ctx 5 6 13 14 19
ctx 5 9 11 16 19
ctx 6 9 10 18 19
ctx 7 8 10 17 19
"""

# The d=7,9,11 documents use the sixth root of unity: w6, with
# w6^2 = w3, w6^4 = W3 and w6^5 = -w3.

D7_32_12 = """\
dim 7
ray 1 1 0 0 0 0 0 0
ray 2 0 1 0 0 0 0 0
ray 3 0 0 1 0 0 0 0
ray 4 0 0 0 1 0 0 0
ray 5 0 0 0 0 1 0 0
ray 6 0 0 0 0 0 1 0
ray 7 0 0 1 1 w3 w3 0
ray 8 0 1 0 w3 w3 1 0
ray 9 0 1 w3 0 1 w3 0
ray 10 0 1 1 W3 0 W3 0
ray 11 0 1 W3 1 W3 0 0
ray 12 1 0 0 -w3 -1 -w3 0
ray 13 1 0 -w3 0 -w3 -1 0
ray 14 1 0 w6 -1 0 w6 0
ray 15 1 0 -1 w6 w6 0 0
ray 16 1 -1 0 0 w6 w6 0
ray 17 1 w6 0 w6 0 -1 0
ray 18 1 -w3 0 -1 -w3 0 0
ray 19 1 -w3 -1 0 0 -w3 0
ray 20 1 w6 w6 0 -1 0 0
ray 21 1 -1 -w3 -w3 0 0 0
ray 22 0 0 0 0 0 0 1
ray 23 0 0 0 1 W3 1 w6
ray 24 0 0 1 0 1 W3 w6
ray 25 0 0 1 w3 0 1 -w3
ray 26 0 0 1 W3 W3 0 -1
ray 27 0 1 0 0 W3 W3 -1
ray 28 0 1 0 1 0 w3 -w3
ray 29 0 1 0 W3 1 0 w6
ray 30 0 1 W3 0 0 1 w6
ray 31 0 1 1 0 w3 0 -w3
ray 32 0 1 w3 w3 0 0 -1
ctx 1 2 3 4 5 6 22
ctx 1 2 7 23 24 25 26
ctx 1 3 8 23 27 28 29
ctx 1 4 9 24 27 30 31
ctx 1 5 10 25 28 30 32
ctx 1 6 11 26 29 31 32
ctx 1 7 8 9 10 11 22
ctx 2 7 12 13 14 15 22
ctx 3 8 12 16 17 18 22
ctx 4 9 13 16 19 20 22
ctx 5 10 14 17 19 21 22
ctx 6 11 15 18 20 21 22
"""

D9_39_13 = """\
dim 9
ray 1 1 0 0 0 0 0 0 0 0
ray 2 0 1 0 0 0 0 0 0 0
ray 3 0 0 1 0 0 0 0 0 0
ray 4 0 0 0 1 0 0 0 0 0
ray 5 0 0 0 0 1 0 0 0 0
ray 6 0 0 0 0 0 1 0 0 0
ray 7 0 0 1 1 w3 w3 0 0 0
ray 8 0 1 0 w3 w3 1 0 0 0
ray 9 0 1 w3 0 1 w3 0 0 0
ray 10 0 1 1 W3 0 W3 0 0 0
ray 11 0 1 W3 1 W3 0 0 0 0
ray 12 1 0 0 -w3 -1 -w3 0 0 0
ray 13 1 0 -w3 0 -w3 -1 0 0 0
ray 14 1 0 w6 -1 0 w6 0 0 0
ray 15 1 0 -1 w6 w6 0 0 0 0
ray 16 1 -1 0 0 w6 w6 0 0 0
ray 17 1 w6 0 w6 0 -1 0 0 0
ray 18 1 -w3 0 -1 -w3 0 0 0 0
ray 19 1 -w3 -1 0 0 -w3 0 0 0
ray 20 1 w6 w6 0 -1 0 0 0 0
ray 21 1 -1 -w3 -w3 0 0 0 0 0
ray 22 0 0 0 0 0 0 1 0 0
ray 23 0 0 0 0 0 0 0 1 0
ray 24 0 0 0 0 0 0 0 0 1
ray 25 0 0 0 1 w3 w3 0 0 1
ray 26 0 0 0 1 1 W3 0 W3 0
ray 27 0 0 0 0 1 w3 0 1 w3
ray 28 0 0 0 1 0 1 0 w3 w3
ray 29 0 0 0 1 W3 0 0 1 W3
ray 30 0 0 0 1 W3 1 w6 0 0
ray 31 0 0 0 0 1 W3 w6 0 1
ray 32 0 0 0 1 0 W3 -1 0 W3
ray 33 0 0 0 1 1 0 -w3 0 w3
ray 34 0 0 0 0 1 1 -w3 w3 0
ray 35 0 0 0 1 0 w3 -w3 1 0
ray 36 0 0 0 1 w3 0 -1 w3 0
ray 37 0 0 0 0 0 1 w6 1 W3
ray 38 0 0 0 0 1 0 -1 W3 W3
ray 39 0 0 0 1 0 0 w6 W3 1
ctx 1 2 3 4 5 6 22 23 24
ctx 1 2 3 4 27 31 34 37 38
ctx 1 2 3 5 28 32 35 37 39
ctx 1 2 3 6 29 33 36 38 39
ctx 1 2 3 22 25 26 27 28 29
ctx 1 2 3 23 25 30 31 32 33
ctx 1 2 3 24 26 30 34 35 36
ctx 1 7 8 9 10 11 22 23 24
ctx 2 7 12 13 14 15 22 23 24
ctx 3 8 12 16 17 18 22 23 24
ctx 4 9 13 16 19 20 22 23 24
ctx 5 10 14 17 19 21 22 23 24
ctx 6 11 15 18 20 21 22 23 24
"""

D11_40_12 = """\
dim 11
ray 1 1 0 0 0 0 0 0 0 0 0 0
ray 2 0 1 0 0 0 0 0 0 0 0 0
ray 3 0 0 1 0 0 0 0 0 0 0 0
ray 4 0 0 0 1 0 0 0 0 0 0 0
ray 5 0 0 0 0 1 0 0 0 0 0 0
ray 6 0 0 1 1 w3 w3 0 0 0 0 0
ray 7 0 1 0 w3 w3 1 0 0 0 0 0
ray 8 0 1 w3 0 1 w3 0 0 0 0 0
ray 9 0 1 1 W3 0 W3 0 0 0 0 0
ray 10 0 1 W3 1 W3 0 0 0 0 0 0
ray 11 1 0 0 -w3 -1 -w3 0 0 0 0 0
ray 12 1 0 -w3 0 -w3 -1 0 0 0 0 0
ray 13 1 0 w6 -1 0 w6 0 0 0 0 0
ray 14 1 0 -1 w6 w6 0 0 0 0 0 0
ray 15 1 -1 0 0 w6 w6 0 0 0 0 0
ray 16 1 w6 0 w6 0 -1 0 0 0 0 0
ray 17 1 -w3 0 -1 -w3 0 0 0 0 0 0
ray 18 1 -w3 -1 0 0 -w3 0 0 0 0 0
ray 19 1 w6 w6 0 -1 0 0 0 0 0 0
ray 20 1 -1 -w3 -w3 0 0 0 0 0 0 0
ray 21 0 0 0 0 0 0 1 0 0 0 0
ray 22 0 0 0 0 0 0 0 1 0 0 0
ray 23 0 0 0 0 0 0 0 0 1 0 0
ray 24 0 0 0 0 0 0 0 0 0 1 0
ray 25 0 0 0 0 0 0 0 0 0 0 1
ray 26 0 0 0 0 0 1 0 0 W3 W3 1
ray 27 0 0 0 0 0 1 0 1 0 w3 w3
ray 28 0 0 0 0 0 1 0 W3 1 0 W3
ray 29 0 0 0 0 0 1 0 w3 w3 1 0
ray 30 0 0 0 0 0 0 0 1 W3 1 W3
ray 31 0 0 0 0 0 1 w6 0 0 1 W3
ray 32 0 0 0 0 0 1 -1 0 w3 0 w3
ray 33 0 0 0 0 0 1 -w3 0 1 w3 0
ray 34 0 0 0 0 0 0 1 0 -1 w6 w6
ray 35 0 0 0 0 0 1 -w3 w3 0 0 1
ray 36 0 0 0 0 0 1 -1 W3 0 W3 0
ray 37 0 0 0 0 0 0 1 -w3 0 -1 -w3
ray 38 0 0 0 0 0 1 w6 1 W3 0 0
ray 39 0 0 0 0 0 0 1 w6 w6 0 -1
ray 40 0 0 0 0 0 0 1 -1 -w3 -w3 0
ctx 1 2 3 4 5 25 29 33 36 38 40
ctx 1 6 7 8 9 10 30 34 37 39 40
ctx 2 6 11 12 13 14 30 34 37 39 40
ctx 3 7 11 15 16 17 30 34 37 39 40
ctx 4 8 12 15 18 19 30 34 37 39 40
ctx 5 9 13 16 18 20 21 22 23 24 25
ctx 5 9 13 16 18 20 30 34 37 39 40
ctx 10 14 17 19 20 21 26 27 28 29 30
ctx 10 14 17 19 20 22 26 31 32 33 34
ctx 10 14 17 19 20 23 27 31 35 36 37
ctx 10 14 17 19 20 24 28 32 35 38 39
ctx 10 14 17 19 20 25 29 33 36 38 40
"""

D3_49_36 = """\
dim 3
ray 1 1 0 0
ray 2 0 1 0
ray 3 0 0 1
ray 4 1 1 2
ray 5 1 -1 2
ray 6 1 -1 -2
ray 7 1 1 -2
ray 8 1 0 2
ray 9 1 0 -2
ray 10 0 1 2
ray 11 0 1 -2
ray 12 1 2 1
ray 13 1 2 -1
ray 14 1 -2 -1
ray 15 1 -2 1
ray 16 0 2 1
ray 17 0 2 -1
ray 18 2 1 1
ray 19 2 1 -1
ray 20 2 -1 1
ray 21 2 -1 -1
ray 22 2 0 1
ray 23 2 0 -1
ray 24 1 1 1
ray 25 1 1 -1
ray 26 1 -1 1
ray 27 1 -1 -1
ray 28 1 1 0
ray 29 1 -1 0
ray 30 1 0 1
ray 31 1 0 -1
ray 32 0 1 1
ray 33 0 1 -1
ray 34 5 -1 -2
ray 35 1 -5 2
ray 36 5 1 -2
ray 37 1 5 2
ray 38 5 1 2
ray 39 1 5 -2
ray 40 5 -1 2
ray 41 1 -5 -2
ray 42 2 -5 -1
ray 43 2 5 -1
ray 44 2 -5 1
ray 45 2 5 1
ray 46 5 -2 1
ray 47 5 2 -1
ray 48 5 -2 -1
ray 49 5 2 1
ctx 1 2 3
ctx 4 23 35
ctx 7 22 41
ctx 11 14 49
ctx 1 10 17
ctx 4 25 29
ctx 7 24 29
ctx 12 26 31
ctx 1 11 16
ctx 5 16 36
ctx 8 19 42
ctx 13 27 30
ctx 1 32 33
ctx 5 23 37
ctx 8 21 43
ctx 14 25 30
ctx 2 8 23
ctx 5 27 28
ctx 9 18 44
ctx 15 24 31
ctx 2 9 22
ctx 6 17 38
ctx 9 20 45
ctx 18 27 33
ctx 2 30 31
ctx 6 22 39
ctx 10 13 46
ctx 19 26 32
ctx 3 28 29
ctx 6 26 28
ctx 10 15 47
ctx 20 25 32
ctx 4 17 34
ctx 7 16 40
ctx 11 12 48
ctx 21 24 33
"""

D3_57_40 = """\
dim 3
ray 1 1 0 0
ray 2 0 1 0
ray 3 0 0 1
ray 4 1 1 0
ray 5 1 -1 0
ray 6 1 0 1
ray 7 1 0 -1
ray 8 0 1 1
ray 9 0 1 -1
ray 10 s2 1 0
ray 11 s2 -1 0
ray 12 s2 0 1
ray 13 s2 0 -1
ray 14 s2 1 1
ray 15 s2 1 -1
ray 16 s2 -1 1
ray 17 s2 -1 -1
ray 18 1 s2 0
ray 19 1 -s2 0
ray 20 0 s2 1
ray 21 0 s2 -1
ray 22 1 s2 1
ray 23 1 s2 -1
ray 24 1 -s2 -1
ray 25 1 -s2 1
ray 26 1 0 s2
ray 27 1 0 -s2
ray 28 0 1 s2
ray 29 0 1 -s2
ray 30 1 1 s2
ray 31 1 -1 s2
ray 32 1 -1 -s2
ray 33 1 1 -s2
ray 34 1 -s2 3
ray 35 1 -s2 -3
ray 36 1 s2 -3
ray 37 1 s2 3
ray 38 1 3 -s2
ray 39 1 -3 -s2
ray 40 1 -3 s2
ray 41 1 3 s2
ray 42 s2 1 -3
ray 43 s2 -3 1
ray 44 s2 1 3
ray 45 s2 -3 -1
ray 46 s2 -1 -3
ray 47 s2 3 1
ray 48 s2 -1 3
ray 49 s2 3 -1
ray 50 3 1 -s2
ray 51 3 -1 s2
ray 52 3 -1 -s2
ray 53 3 1 s2
ray 54 3 -s2 -1
ray 55 3 -s2 1
ray 56 3 s2 1
ray 57 3 s2 -1
ctx 1 2 3
ctx 4 31 32
ctx 12 32 38
ctx 17 18 48
ctx 1 8 9
ctx 5 30 33
ctx 12 33 39
ctx 17 26 49
ctx 1 20 29
ctx 6 23 24
ctx 13 30 40
ctx 20 31 50
ctx 1 21 28
ctx 7 22 25
ctx 13 31 41
ctx 20 33 51
ctx 2 6 7
ctx 8 15 16
ctx 14 19 42
ctx 21 30 52
ctx 2 12 27
ctx 9 14 17
ctx 14 27 43
ctx 21 32 53
ctx 2 13 26
ctx 10 24 34
ctx 15 19 44
ctx 22 29 54
ctx 3 4 5
ctx 10 25 35
ctx 15 26 45
ctx 23 28 55
ctx 3 10 19
ctx 11 22 36
ctx 16 18 46
ctx 24 29 56
ctx 3 11 18
ctx 11 23 37
ctx 16 27 47
ctx 25 28 57
"""

# The 18-ray d=4 seed after the scaled unitary [[3,-4,0,0],[4,3,0,0],
# [0,0,5,0],[0,0,0,5]] (the 3-4-5 rotation in coordinates 0 and 1).  Padding
# it with zeros on either side leaves no two of its padded rays, nor a padded
# ray and a pad projector, spanning the same subspace, so the padded doubling
# reaches the full 39-19 count.
D4_18_9_ROT = """\
dim 4
ray 1 3 4 0 0
ray 2 -4 3 0 0
ray 3 0 0 5 0
ray 4 -1 7 5 5
ray 5 -1 7 5 -5
ray 6 7 1 5 5
ray 7 7 1 5 -5
ray 8 7 1 -5 5
ray 9 7 1 -5 -5
ray 10 -1 7 0 0
ray 11 3 4 0 5
ray 12 3 4 0 -5
ray 13 3 4 -5 0
ray 14 -4 3 0 5
ray 15 -4 3 0 -5
ray 16 -4 3 -5 0
ray 17 0 0 5 5
ray 18 0 0 5 -5
ctx 1 2 17 18
ctx 1 3 14 15
ctx 2 3 11 12
ctx 4 7 13 15
ctx 4 8 12 16
ctx 5 6 13 14
ctx 5 9 11 16
ctx 6 9 10 18
ctx 7 8 10 17
"""

# The 21-ray d=6 seed after the unitary change of basis that sends its
# first context to the standard axis rays; this is the form the
# coordinate-swap construction requires.
D6_21_7_BASIS = """\
dim 6
ray 1 1 0 0 0 0 0
ray 2 0 1 0 0 0 0
ray 3 0 0 1 0 0 0
ray 4 0 0 0 1 0 0
ray 5 0 0 0 0 1 0
ray 6 0 0 0 0 0 1
ray 7 0 0 1 1 w3 w3
ray 8 0 1 0 w3 w3 1
ray 9 0 1 w3 0 1 w3
ray 10 0 1 1 W3 0 W3
ray 11 0 1 W3 1 W3 0
ray 12 1 0 0 -w3 -1 -w3
ray 13 1 0 -w3 0 -w3 -1
ray 14 1 0 w6 -1 0 w6
ray 15 1 0 -1 w6 w6 0
ray 16 1 -1 0 0 w6 w6
ray 17 1 w6 0 w6 0 -1
ray 18 1 -w3 0 -1 -w3 0
ray 19 1 -w3 -1 0 0 -w3
ray 20 1 w6 w6 0 -1 0
ray 21 1 -1 -w3 -w3 0 0
ctx 1 2 3 4 5 6
ctx 1 7 8 9 10 11
ctx 2 7 12 13 14 15
ctx 3 8 12 16 17 18
ctx 4 9 13 16 19 20
ctx 5 10 14 17 19 21
ctx 6 11 15 18 20 21
"""
